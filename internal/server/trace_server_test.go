package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rayfade/internal/obs"
)

// postTraced posts body to path with an X-Trace-Context header naming
// traceID and parentID, returning the response and its body.
func postTraced(t *testing.T, ts *httptest.Server, path string, body []byte, traceID string, parentID uint64) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTraceContext, obs.TraceContext{TraceID: traceID, ParentID: parentID}.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// fetchTrace GETs /v1/trace/{id} and decodes the bundle when the status is
// 200.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) (int, obs.TraceBundle) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b obs.TraceBundle
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
			t.Fatalf("bad bundle JSON: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, b
}

// TestTraceCollectionAndFetch: a request carrying X-Trace-Context has its
// spans collected into a per-trace ring — keyed by trace ID, remote-parented
// under the coordinator span from the header — and served back by
// GET /v1/trace/{id}. The server's own tracer must NOT receive those spans:
// cluster traces stay per-run, /debug/obs shows only local traffic.
func TestTraceCollectionAndFetch(t *testing.T) {
	tr := obs.NewTracer(0)
	s, ts := newTestServer(t, Config{Tracer: tr})
	topo := testTopology(t, 10, 1)
	const traceID = "4b8bc3c7d5db6fea"
	const parentID = uint64(77)

	resp, body := postTraced(t, ts, "/v1/schedule", reqBody(t, topo, nil), traceID, parentID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced request status %d: %s", resp.StatusCode, body)
	}

	status, b := fetchTrace(t, ts, traceID)
	if status != http.StatusOK {
		t.Fatalf("trace fetch status %d", status)
	}
	if b.TraceID != traceID || b.Instance != s.instance || b.EpochUnixNano == 0 {
		t.Fatalf("bundle identity wrong: %+v", b)
	}
	var reqSpan *obs.SpanRecord
	for i := range b.Spans {
		if b.Spans[i].Name == "http./v1/schedule" {
			reqSpan = &b.Spans[i]
		}
	}
	if reqSpan == nil {
		t.Fatalf("request span missing from bundle: %+v", b.Spans)
	}
	if reqSpan.Remote != parentID {
		t.Fatalf("remote parent = %d, want %d", reqSpan.Remote, parentID)
	}
	attrs := map[string]any{}
	for _, a := range reqSpan.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["trace_id"] != traceID {
		t.Fatalf("trace_id attr = %v", attrs["trace_id"])
	}
	// The scheduler's own spans must ride along in the same bundle, nested
	// under the request span — ctx propagation through the pool holds for
	// per-trace collectors exactly as for the server tracer.
	var algNested bool
	for _, sp := range b.Spans {
		if sp.Name == "capacity.greedy_affectance" && sp.Parent == reqSpan.ID {
			algNested = true
		}
	}
	if !algNested {
		t.Fatalf("scheduler span missing or not under request span: %+v", b.Spans)
	}
	for _, sp := range tr.Snapshot() {
		if sp.Name == "http./v1/schedule" {
			t.Fatal("traced request leaked into the server tracer")
		}
	}
	// Fetching snapshots, it does not consume: a second fetch sees the spans.
	if status, b2 := fetchTrace(t, ts, traceID); status != http.StatusOK || len(b2.Spans) != len(b.Spans) {
		t.Fatalf("second fetch status=%d spans=%d, want %d", status, len(b2.Spans), len(b.Spans))
	}
}

// TestTraceStoreEviction: the per-trace store is a bounded LRU over trace
// IDs and exports its occupancy as a gauge.
func TestTraceStoreEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	topo := testTopology(t, 10, 1)
	ids := make([]string, traceCapacity+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("%04x", i)
		if resp, body := postTraced(t, ts, "/v1/schedule", reqBody(t, topo, nil), ids[i], 1); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ids[i], resp.StatusCode, body)
		}
	}
	if status, _ := fetchTrace(t, ts, ids[0]); status != http.StatusNotFound {
		t.Fatalf("oldest trace not evicted: status %d", status)
	}
	for _, id := range []string{ids[1], ids[traceCapacity]} {
		if status, b := fetchTrace(t, ts, id); status != http.StatusOK || len(b.Spans) == 0 {
			t.Fatalf("%s: status=%d spans=%d", id, status, len(b.Spans))
		}
	}
	var sb strings.Builder
	s.metrics.WriteTo(&sb)
	if !strings.Contains(sb.String(), fmt.Sprintf("rayschedd_traces_retained %d", traceCapacity)) {
		t.Fatalf("retained-traces gauge wrong:\n%s", sb.String())
	}
}

// TestTraceFetchErrors: an unknown trace ID is 404 and an oversized one
// 400.
func TestTraceFetchErrors(t *testing.T) {
	_, on := newTestServer(t, Config{})
	if status, _ := fetchTrace(t, on, "beef"); status != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", status)
	}
	if status, _ := fetchTrace(t, on, strings.Repeat("a", 65)); status != http.StatusBadRequest {
		t.Fatalf("oversized trace id status %d, want 400", status)
	}
}

// TestRequestIDAdoption: a well-formed inbound X-Request-ID is adopted (so
// one client-chosen ID correlates coordinator and worker logs across
// retries); a hostile one is replaced.
func TestRequestIDAdoption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do := func(id string) string {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("X-Request-ID")
	}
	if got := do("req-1234.retry:2"); got != "req-1234.retry:2" {
		t.Fatalf("valid inbound id not adopted: %q", got)
	}
	if got := do("bad id!{}"); got == "bad id!{}" || got == "" {
		t.Fatalf("hostile inbound id adopted: %q", got)
	}
	if got := do(strings.Repeat("x", 65)); len(got) > 64 {
		t.Fatalf("oversized inbound id adopted: %q", got)
	}
}
