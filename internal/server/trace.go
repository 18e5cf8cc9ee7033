package server

import (
	"encoding/json"
	"net/http"
	"sync"

	"rayfade/internal/obs"
)

// traceRingSpans bounds one trace's span retention on a worker. A Figure-1
// shard records a handful of request/replication/phase spans per
// replication, so 16Ki spans comfortably covers realistic shards while
// capping the memory one trace can pin.
const traceRingSpans = 1 << 14

// traceCapacity bounds how many distinct trace IDs a worker retains span
// collections for.
const traceCapacity = 64

// traceStore keeps per-trace span collectors for requests that arrived with
// an X-Trace-Context header: each distinct trace ID gets its own
// obs.Tracer (own ring, own epoch), so one cluster run's spans are not
// interleaved with another's and a fetch serializes exactly the requested
// trace. The store is a bounded LRU over trace IDs — an abandoned trace
// (coordinator died before fetching) ages out instead of pinning memory.
//
// Spans collected here deliberately do not land in the server's main tracer:
// the request context carries the per-trace tracer instead, so /debug/obs
// shows locally-traced traffic while cluster traces stay per-run.
type traceStore struct {
	mu      sync.Mutex
	tracers lru[*obs.Tracer]
}

func newTraceStore() *traceStore {
	return &traceStore{tracers: newLRU[*obs.Tracer](traceCapacity)}
}

// tracer returns (creating on first use) the collector for trace id,
// updating recency and evicting the least recently used trace when over
// capacity.
func (s *traceStore) tracer(id string) *obs.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tr, ok := s.tracers.get(id); ok {
		return tr
	}
	tr := obs.NewTracer(traceRingSpans)
	s.tracers.put(id, tr)
	return tr
}

// bundle snapshots the collector for trace id as a TraceBundle, or reports
// that the trace is unknown (never seen, or evicted).
func (s *traceStore) bundle(id, instance string) (obs.TraceBundle, bool) {
	s.mu.Lock()
	tr, ok := s.tracers.get(id)
	s.mu.Unlock()
	if !ok {
		return obs.TraceBundle{}, false
	}
	return tr.Bundle(id, instance), true
}

// len returns the number of retained traces.
func (s *traceStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tracers.len()
}

// handleTraceFetch is GET /v1/trace/{id}: the shard-trace return channel. A
// coordinator that dispatched work under a trace ID fetches the worker's
// span collection for that trace and merges it with its own
// (obs.WriteMergedTrace). 404 means the worker never collected the trace —
// it saw no requests under that ID, or the collection was evicted.
func (s *Server) handleTraceFetch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" || len(id) > 64 {
		writeError(w, badRequest("trace id must be 1-64 characters"))
		return
	}
	b, ok := s.traces.bundle(id, s.instance)
	if !ok {
		writeError(w, &httpError{status: http.StatusNotFound,
			msg: "unknown trace id (never collected, or evicted)"})
		return
	}
	body, err := json.Marshal(b)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// validRequestID reports whether an inbound X-Request-ID is safe to adopt
// for log correlation: short and drawn from a conservative charset, so a
// hostile client cannot inject log records or unbounded labels.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == ':':
		default:
			return false
		}
	}
	return true
}
