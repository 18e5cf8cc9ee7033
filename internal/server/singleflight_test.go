package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"
)

// waitMisses blocks until the cache has counted want misses: the point at
// which a request has made its lookup and, if the key was pending, joined
// the flight.
func waitMisses(t *testing.T, c *Cache, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, m := c.Stats(); m >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache never reached %d misses", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// respondAsync runs s.respond on its own goroutine and delivers the result.
func respondAsync(s *Server, key string, compute func(context.Context) (any, error)) <-chan computeResult {
	ch := make(chan computeResult, 1)
	go func() {
		out, err := s.respond(context.Background(), key, compute)
		ch <- computeResult{out, err}
	}()
	return ch
}

type computeResult struct {
	out computeOutcome
	err error
}

// TestPendingEntrySurvivesEviction: a key whose leader is still computing
// is a pending cache entry, which eviction pressure must not touch. While
// K is in flight on a 2-entry cache, three other keys fill (evicting one
// of their own); a second request for K must still join as a follower and
// receive the leader's bytes rather than compute again.
func TestPendingEntrySurvivesEviction(t *testing.T) {
	s := New(Config{CacheSize: 2, Workers: 2})
	t.Cleanup(s.Close)
	started, release := make(chan struct{}), make(chan struct{})
	leader := respondAsync(s, "K", func(context.Context) (any, error) {
		close(started)
		<-release
		return "leader bytes", nil
	})
	<-started
	for _, k := range []string{"a", "b", "c"} {
		if _, err := s.respond(context.Background(), k, func(context.Context) (any, error) { return k, nil }); err != nil {
			t.Fatalf("fill %s: %v", k, err)
		}
	}
	if n := s.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d ready entries, want 2 (pending K must not count)", n)
	}
	follower := respondAsync(s, "K", func(context.Context) (any, error) {
		t.Error("second request for K computed instead of joining the pending entry")
		return "follower bytes", nil
	})
	waitMisses(t, s.cache, 5) // K, a, b, c, then the follower's lookup
	close(release)

	lr, fr := <-leader, <-follower
	if lr.err != nil || fr.err != nil {
		t.Fatalf("leader err %v, follower err %v", lr.err, fr.err)
	}
	if lr.out.source != sourceMiss || fr.out.source != sourceShared {
		t.Fatalf("sources leader=%s follower=%s, want miss/shared", lr.out.source, fr.out.source)
	}
	if !bytes.Equal(fr.out.body, lr.out.body) || string(lr.out.body) != `"leader bytes"` {
		t.Fatalf("follower got %s, leader %s", fr.out.body, lr.out.body)
	}
	if got := s.sfShared.Load(); got != 1 {
		t.Fatalf("rayschedd_singleflight_shared_total %d, want 1", got)
	}
	if body, ok := s.cache.Get("K"); !ok || !bytes.Equal(body, lr.out.body) {
		t.Fatalf("K not ready after fill: ok=%v body=%s", ok, body)
	}
}

// TestFailedLeaderLeavesNoEntry: a leader's error reaches the followers
// that joined its flight, and leaves nothing behind in the cache, so the
// next request for the key leads a fresh computation.
func TestFailedLeaderLeavesNoEntry(t *testing.T) {
	s := New(Config{CacheSize: 2, Workers: 1})
	t.Cleanup(s.Close)
	boom := errors.New("compute exploded")
	started, release := make(chan struct{}), make(chan struct{})
	leader := respondAsync(s, "K", func(context.Context) (any, error) {
		close(started)
		<-release
		return nil, boom
	})
	<-started
	follower := respondAsync(s, "K", func(context.Context) (any, error) {
		t.Error("follower computed instead of joining")
		return nil, nil
	})
	waitMisses(t, s.cache, 2)
	close(release)
	for name, ch := range map[string]<-chan computeResult{"leader": leader, "follower": follower} {
		if r := <-ch; !errors.Is(r.err, boom) {
			t.Fatalf("%s err %v, want %v", name, r.err, boom)
		}
	}
	if s.cache.Len() != 0 || s.sfShared.Load() != 0 {
		t.Fatalf("failed flight left state: len=%d shared=%d", s.cache.Len(), s.sfShared.Load())
	}

	computed := false
	out, err := s.respond(context.Background(), "K", func(context.Context) (any, error) {
		computed = true
		return "fresh", nil
	})
	if err != nil || !computed || out.source != sourceMiss || string(out.body) != `"fresh"` {
		t.Fatalf("retry after failure: computed=%v source=%s body=%s err=%v", computed, out.source, out.body, err)
	}
}

// TestSingleflightCollapsesConcurrentIdenticalFault: with caching disabled
// and every pool job slowed by an armed delay fault (widening the in-flight
// window), a burst of identical requests must collapse onto one computation
// — at least one response carries X-Singleflight: shared and the shared
// counter moves — and every body must be byte-identical. ("Fault" in the
// name keeps this in CI's chaos-smoke subset, where the injector machinery
// is exercised under -race.)
func TestSingleflightCollapsesConcurrentIdenticalFault(t *testing.T) {
	withFaults(t, "seed=5,pool.job=delay:1:80ms")
	s, ts := newTestServer(t, Config{CacheSize: -1})
	topo := testTopology(t, 12, 1)
	req := reqBody(t, topo, map[string]any{"samples": 20, "seed": 3})

	const burst = 8
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		shared int
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts, "/v1/estimate", req)
			mu.Lock()
			defer mu.Unlock()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			if resp.Header.Get("X-Singleflight") == "shared" {
				shared++
			}
			bodies = append(bodies, body)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(bodies) != burst {
		t.Fatalf("%d bodies, want %d", len(bodies), burst)
	}
	for i := 1; i < burst; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if shared == 0 {
		t.Fatal("no response was singleflight-shared despite an 80ms in-flight window")
	}
	if got := s.sfShared.Load(); got != int64(shared) {
		t.Fatalf("rayschedd_singleflight_shared_total %d, header count %d", got, shared)
	}
}

// TestSingleflightSharedByteIdenticalUnderHandlerFault: with transient
// handler faults armed, shared responses that do succeed must still be
// byte-identical to an unshared response for the same request — the
// singleflight path must never surface a follower-specific body, and a
// leader's injected failure must not poison later bursts.
func TestSingleflightSharedByteIdenticalUnderHandlerFault(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	topo := testTopology(t, 12, 2)
	req := reqBody(t, topo, map[string]any{"samples": 20, "seed": 9})

	// Unshared baseline, measured before any fault is armed.
	resp, baseline := post(t, ts, "/v1/estimate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", resp.StatusCode, baseline)
	}

	withFaults(t, "seed=7,server.handler=error:0.3,pool.job=delay:1:40ms")
	const bursts, width = 4, 6
	var sharedOK int
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		results := make([][]byte, width)
		headers := make([]string, width)
		codes := make([]int, width)
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, body := post(t, ts, "/v1/estimate", req)
				codes[i], results[i], headers[i] = resp.StatusCode, body, resp.Header.Get("X-Singleflight")
			}(i)
		}
		wg.Wait()
		for i := 0; i < width; i++ {
			switch codes[i] {
			case http.StatusOK:
				if !bytes.Equal(results[i], baseline) {
					t.Fatalf("burst %d response %d differs from unshared baseline:\n%s\nvs\n%s",
						b, i, results[i], baseline)
				}
				if headers[i] == "shared" {
					sharedOK++
				}
			case http.StatusServiceUnavailable:
				// The armed transient fault (injected at the handler or
				// propagated through a shared flight); retryable by contract.
				var eb errorBody
				if err := json.Unmarshal(results[i], &eb); err != nil || eb.Error == "" {
					t.Fatalf("burst %d response %d: malformed 503 body %s", b, i, results[i])
				}
			default:
				t.Fatalf("burst %d response %d: unexpected status %d: %s", b, i, codes[i], results[i])
			}
		}
	}
	if sharedOK == 0 {
		t.Skip("no successful shared response in this fault schedule; byte-identity vacuous")
	}
	if s.sfShared.Load() == 0 {
		t.Fatal("shared header seen but counter never moved")
	}
}
