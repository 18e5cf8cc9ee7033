package server

import "sync"

// Cache holds rendered response bodies keyed by the canonical request hash
// (see requestKey), and is also where concurrent identical requests meet
// ("singleflight"). A key's entry is either ready — it holds the exact
// bytes written to the first requester, so a hit replays a byte-identical
// response and the daemon's determinism contract (same topology, params,
// and seed ⇒ same bytes) survives caching — or pending: a leader is
// computing it, and requests arriving meanwhile wait for the leader's bytes
// instead of occupying pool slots with duplicate work.
//
// Ready entries live in a bounded LRU. Pending entries sit beside it under
// the same lock: they are never evicted and do not count toward capacity.
// A leader's fill moves its key from pending to ready in one critical
// section, so no request can find the key neither pending nor cached once
// the result exists.
type Cache struct {
	mu      sync.Mutex
	ready   lru[[]byte]
	pending map[string]*flight
}

// flight is one pending computation. done is closed exactly once, after
// body and err have been published by fill.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// NewCache returns a cache holding at most capacity ready entries.
// capacity <= 0 disables caching: every Get misses and Put is a no-op, but
// concurrent identical requests still share one computation.
func NewCache(capacity int) *Cache {
	return &Cache{ready: newLRU[[]byte](capacity), pending: make(map[string]*flight)}
}

// acquire is the request path's single lookup. On a hit it returns the
// ready body and a nil flight. Otherwise it returns the key's pending
// flight, which the caller joins as a follower, or — when none is pending —
// a new one with lead set: the caller must compute and then fill it. Both
// non-hit outcomes count as a cache miss.
func (c *Cache) acquire(key string) (body []byte, fl *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if body, ok := c.ready.get(key); ok {
		return body, nil, false
	}
	if fl, ok := c.pending[key]; ok {
		return nil, fl, false
	}
	fl = &flight{done: make(chan struct{})}
	c.pending[key] = fl
	return nil, fl, true
}

// fill completes the leader's flight for key: a successful body becomes the
// key's ready entry (unless caching is disabled), a failure leaves no entry
// behind, and either way every follower is woken with the result.
func (c *Cache) fill(key string, fl *flight, body []byte, err error) {
	c.mu.Lock()
	delete(c.pending, key)
	if err == nil {
		c.ready.put(key, body)
	}
	c.mu.Unlock()
	fl.body, fl.err = body, err
	close(fl.done)
}

// Get returns the ready body for key and whether it was present, updating
// recency and the hit/miss counters.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready.get(key)
}

// Put stores body under key, evicting the least recently used entry when
// over capacity. The caller must not mutate body afterwards.
func (c *Cache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ready.put(key, body)
}

// Len returns the number of ready entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready.len()
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ready.hits, c.ready.misses
}
