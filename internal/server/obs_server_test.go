package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"rayfade/internal/obs"
)

// TestMetaEndpointLabel: /healthz and /metrics must not bypass the request
// accounting — they record under the shared "meta" label, separate from the
// compute endpoints' histograms.
func TestMetaEndpointLabel(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var sb strings.Builder
	if _, err := s.metrics.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The second /metrics scrape above ran before its own Observe fired, so
	// the render sees healthz plus the first scrape... both under "meta".
	if !strings.Contains(out, `rayschedd_requests_total{endpoint="meta",code="200"}`) {
		t.Fatalf("meta endpoint label missing from metrics:\n%s", out)
	}
	if strings.Contains(out, `endpoint="/healthz"`) || strings.Contains(out, `endpoint="/metrics"`) {
		t.Fatalf("operational endpoints must fold into the meta label:\n%s", out)
	}
}

// TestRequestIDHeader: every response carries a unique X-Request-ID.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("missing X-Request-ID header")
		}
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

// TestAccessLog: a configured logger receives one record per request with
// the endpoint, status, and request id fields.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, Config{Log: log})
	topo := testTopology(t, 10, 1)
	resp, _ := post(t, ts, "/v1/schedule", reqBody(t, topo, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	wantID := resp.Header.Get("X-Request-ID")

	dec := json.NewDecoder(&buf)
	var rec map[string]any
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("no access log record: %v", err)
	}
	if rec["endpoint"] != "/v1/schedule" {
		t.Fatalf("endpoint = %v", rec["endpoint"])
	}
	if rec["status"] != float64(200) {
		t.Fatalf("status = %v", rec["status"])
	}
	if rec["request_id"] != wantID {
		t.Fatalf("request_id = %v, header said %q", rec["request_id"], wantID)
	}
	if _, ok := rec["queue_wait"].(string); !ok {
		t.Fatalf("queue_wait missing: %v", rec)
	}
}

// TestQueueWaitSeries: a pooled compute request produces the queue-wait
// histogram series; a fresh server renders none (so seed golden metrics
// output is unchanged by the feature).
func TestQueueWaitSeries(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var sb strings.Builder
	s.metrics.WriteTo(&sb)
	if strings.Contains(sb.String(), "rayschedd_queue_wait_seconds") {
		t.Fatalf("queue-wait series rendered before any pooled request:\n%s", sb.String())
	}

	topo := testTopology(t, 10, 1)
	if resp, _ := post(t, ts, "/v1/schedule", reqBody(t, topo, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sb.Reset()
	s.metrics.WriteTo(&sb)
	out := sb.String()
	if !strings.Contains(out, `rayschedd_queue_wait_seconds_count{endpoint="/v1/schedule"} 1`) {
		t.Fatalf("queue-wait count series missing after pooled request:\n%s", out)
	}

	// A cache hit skips the pool and must not bump the wait count.
	if resp, _ := post(t, ts, "/v1/schedule", reqBody(t, topo, nil)); resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("expected cache hit, got %q", resp.Header.Get("X-Cache"))
	}
	sb.Reset()
	s.metrics.WriteTo(&sb)
	if !strings.Contains(sb.String(), `rayschedd_queue_wait_seconds_count{endpoint="/v1/schedule"} 1`) {
		t.Fatalf("cache hit must not record a queue wait:\n%s", sb.String())
	}
}

// TestDebugObs: with Debug set, /debug/obs serves the health document and
// the request spans, and the pprof index is mounted; without Debug both 404.
func TestDebugObs(t *testing.T) {
	_, ts := newTestServer(t, Config{Debug: true})
	topo := testTopology(t, 10, 1)
	if resp, _ := post(t, ts, "/v1/schedule", reqBody(t, topo, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/obs status %d", resp.StatusCode)
	}
	var doc debugObsResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad /debug/obs JSON: %v\n%s", err, body)
	}
	var scheduled uint64
	for _, ep := range doc.Health.Endpoints {
		if ep.Endpoint == "/v1/schedule" {
			scheduled = ep.Requests
		}
	}
	if scheduled != 1 || doc.Health.Instance == "" {
		t.Fatalf("schedule request missing from the health document: %+v", doc.Health)
	}
	if doc.SpansRecorded == 0 || len(doc.RecentSpans) == 0 {
		t.Fatalf("no spans recorded: %+v", doc)
	}
	found := false
	for _, sp := range doc.RecentSpans {
		if sp.Name == "http./v1/schedule" {
			found = true
		}
	}
	if !found {
		t.Fatalf("request span missing from recent spans: %+v", doc.RecentSpans)
	}
	if resp, err := http.Get(ts.URL + "/debug/pprof/"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index not mounted under Debug: %v %v", err, resp)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	_, plain := newTestServer(t, Config{})
	for _, path := range []string{"/debug/obs", "/debug/pprof/"} {
		resp, err := http.Get(plain.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s must 404 without Debug, got %d", path, resp.StatusCode)
		}
	}
}

// TestRequestSpansNestScheduler: the daemon's request span must become the
// parent of the scheduler span the compute layer starts, proving ctx
// propagation end to end through pool workers.
func TestRequestSpansNestScheduler(t *testing.T) {
	tr := obs.NewTracer(0)
	_, ts := newTestServer(t, Config{Tracer: tr})
	topo := testTopology(t, 10, 1)
	if resp, _ := post(t, ts, "/v1/schedule", reqBody(t, topo, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var reqSpan, algSpan *obs.SpanRecord
	spans := tr.Snapshot()
	for i := range spans {
		switch spans[i].Name {
		case "http./v1/schedule":
			reqSpan = &spans[i]
		case "capacity.greedy_affectance":
			algSpan = &spans[i]
		}
	}
	if reqSpan == nil || algSpan == nil {
		t.Fatalf("spans missing (req=%v alg=%v) in %+v", reqSpan, algSpan, spans)
	}
	if algSpan.Parent != reqSpan.ID {
		t.Fatalf("scheduler span parent = %d, want request span %d", algSpan.Parent, reqSpan.ID)
	}
}
