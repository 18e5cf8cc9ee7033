package server

import "container/list"

// lru is the daemon's one bounded least-recently-used map: the response
// cache, the topology session store, and the per-trace span store are all
// instances of it. It owns recency, eviction, the entry count, and the
// hit/miss/eviction tallies. It does no locking of its own — each owner
// serializes access under its own mutex, which lets the response cache
// combine a lookup with its in-flight bookkeeping in one critical section.
type lru[V any] struct {
	cap   int
	order list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions uint64
}

type lruItem[V any] struct {
	key string
	val V
}

// newLRU returns an lru holding at most capacity entries; capacity <= 0
// holds nothing (every get misses, put is a no-op).
func newLRU[V any](capacity int) lru[V] {
	return lru[V]{cap: capacity, items: make(map[string]*list.Element)}
}

// get returns the value under key, refreshing its recency and counting a
// hit or a miss.
func (l *lru[V]) get(key string) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		l.misses++
		var zero V
		return zero, false
	}
	l.hits++
	l.order.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put stores val under key as the most recently used entry, replacing any
// previous value, and evicts the least recently used entries beyond
// capacity. created reports whether key was absent. Lookups done by put
// count neither as hits nor as misses.
func (l *lru[V]) put(key string, val V) (created bool) {
	if l.cap <= 0 {
		return false
	}
	if el, ok := l.items[key]; ok {
		el.Value.(*lruItem[V]).val = val
		l.order.MoveToFront(el)
		return false
	}
	l.items[key] = l.order.PushFront(&lruItem[V]{key: key, val: val})
	for l.order.Len() > l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*lruItem[V]).key)
		l.evictions++
	}
	return true
}

// len returns the number of entries.
func (l *lru[V]) len() int { return l.order.Len() }
