package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// uploadTopology posts a topology document and decodes the session handle.
func uploadTopology(t *testing.T, ts *httptest.Server, topo []byte) topologyResponse {
	t.Helper()
	resp, body := post(t, ts, "/v1/topology", topo)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var out topologyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("upload: decode: %v", err)
	}
	return out
}

// metricsText renders the server's Prometheus output.
func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	var sb strings.Builder
	if _, err := s.metrics.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestSessionStoreLRUAndStats pins what the store adds to the shared LRU
// (whose recency and eviction order TestLRU covers): refs are content
// hashes, re-uploads report created=false, and the tallies reach Stats.
func TestSessionStoreLRUAndStats(t *testing.T) {
	store := NewSessionStore(1)
	canon := func(i int) []byte { return []byte(fmt.Sprintf("topology-%d", i)) }

	ref0, created, err := store.Put(canon(0), nil)
	if err != nil || !created {
		t.Fatalf("first put: created=%v err=%v", created, err)
	}
	if want := TopologyRef(canon(0)); ref0 != want {
		t.Fatalf("ref %q, want content-derived %q", ref0, want)
	}
	if _, created, _ := store.Put(canon(0), nil); created {
		t.Fatal("re-upload reported created=true")
	}
	if _, got, ok := store.Get(ref0); !ok || !bytes.Equal(got, canon(0)) {
		t.Fatalf("get: ok=%v canon=%q", ok, got)
	}
	store.Put(canon(1), nil) // evicts topology 0
	if _, _, ok := store.Get(ref0); ok {
		t.Fatal("entry survived eviction")
	}
	hits, misses, evictions := store.Stats()
	if hits != 1 || misses != 1 || evictions != 1 || store.Len() != 1 {
		t.Fatalf("stats hits=%d misses=%d evictions=%d len=%d, want 1/1/1/1", hits, misses, evictions, store.Len())
	}
}

// TestSessionStoreConcurrent hammers upload/lookup/evict from many
// goroutines under a tiny capacity; under -race this is the data-race
// coverage for the store. Correctness asserts: the store never exceeds its
// bound and the churn produced real evictions.
func TestSessionStoreConcurrent(t *testing.T) {
	const (
		capacity   = 4
		workers    = 8
		iterations = 200
		topologies = 16
	)
	store := NewSessionStore(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				id := (w + i) % topologies
				canon := []byte(fmt.Sprintf("topology-%d", id))
				switch i % 3 {
				case 0, 1:
					if _, _, err := store.Put(canon, nil); err != nil {
						panic(err)
					}
				default:
					store.Get(TopologyRef(canon))
				}
				if n := store.Len(); n > capacity {
					panic(fmt.Sprintf("store grew to %d, cap %d", n, capacity))
				}
			}
		}(w)
	}
	wg.Wait()
	if n := store.Len(); n > capacity {
		t.Fatalf("store holds %d entries, cap %d", n, capacity)
	}
	if _, _, evictions := store.Stats(); evictions == 0 {
		t.Fatal("no evictions despite churn far beyond capacity")
	}
}

// TestTopologySessionLifecycle is the acceptance path: upload once, compute
// by ref, and the response bytes must be identical to the inline-topology
// request. Then eviction: the ref answers 404 with a re-upload hint, and
// re-uploading the same content restores the same handle.
func TestTopologySessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 16, 1)

	up := uploadTopology(t, ts, topo)
	if up.TopologyRef != TopologyRef(topo) || up.Links != 16 || !up.Created {
		t.Fatalf("upload response %+v", up)
	}
	if again := uploadTopology(t, ts, topo); again.Created {
		t.Fatalf("re-upload reported created=true: %+v", again)
	}

	resp, inline := post(t, ts, "/v1/estimate", reqBody(t, topo, map[string]any{"samples": 50, "seed": 7}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline estimate: status %d: %s", resp.StatusCode, inline)
	}
	refReq, _ := json.Marshal(map[string]any{"topology_ref": up.TopologyRef, "samples": 50, "seed": 7})
	resp, byRef := post(t, ts, "/v1/estimate", refReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ref estimate: status %d: %s", resp.StatusCode, byRef)
	}
	if !bytes.Equal(inline, byRef) {
		t.Fatalf("ref response differs from inline:\n%s\nvs\n%s", byRef, inline)
	}

	// Evict by filling the store with sessionCapacity other topologies.
	for i := 0; i < sessionCapacity; i++ {
		uploadTopology(t, ts, testTopology(t, 4, uint64(i)+2))
	}
	resp, body := post(t, ts, "/v1/estimate", refReq)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted ref: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("/v1/topology")) {
		t.Fatalf("404 body gives no re-upload hint: %s", body)
	}
	// Recovery: same content, same ref, same response bytes.
	if re := uploadTopology(t, ts, topo); !re.Created || re.TopologyRef != up.TopologyRef {
		t.Fatalf("re-upload after eviction: %+v", re)
	}
	resp, byRef2 := post(t, ts, "/v1/estimate", refReq)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(inline, byRef2) {
		t.Fatalf("post-recovery ref estimate: status %d, identical=%v", resp.StatusCode, bytes.Equal(inline, byRef2))
	}
}

func TestTopologyRefValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	topo := testTopology(t, 8, 1)

	// Both network and topology_ref is ambiguous.
	both, _ := json.Marshal(map[string]any{
		"network": json.RawMessage(topo), "topology_ref": "sha256:abc", "samples": 10,
	})
	if resp, body := post(t, ts, "/v1/estimate", both); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("both fields: status %d: %s", resp.StatusCode, body)
	}
	// Unknown ref is 404, not 400: the request is well-formed, the state is
	// missing.
	unknown, _ := json.Marshal(map[string]any{"topology_ref": "sha256:deadbeef", "samples": 10})
	if resp, body := post(t, ts, "/v1/estimate", unknown); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ref: status %d: %s", resp.StatusCode, body)
	}
	// Every compute endpoint accepts refs, not just estimate.
	up := uploadTopology(t, ts, topo)
	for _, path := range []string{"/v1/schedule", "/v1/latency", "/v1/reduce"} {
		req, _ := json.Marshal(map[string]any{"topology_ref": up.TopologyRef})
		if resp, body := post(t, ts, path, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s by ref: status %d: %s", path, resp.StatusCode, body)
		}
	}
}

func TestSessionMetricsExported(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	up := uploadTopology(t, ts, testTopology(t, 8, 1))
	refReq, _ := json.Marshal(map[string]any{"topology_ref": up.TopologyRef, "samples": 10})
	if resp, body := post(t, ts, "/v1/estimate", refReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("ref estimate: status %d: %s", resp.StatusCode, body)
	}
	text := metricsText(t, s)
	for _, want := range []string{
		"rayschedd_sessions_entries 1",
		"rayschedd_session_hits_total 1",
		"rayschedd_session_evictions_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
