package server

import (
	"strings"
	"testing"
)

func TestMetricsRender(t *testing.T) {
	m := NewMetrics()
	m.Observe("/v1/schedule", 200, 0.01)
	m.Observe("/v1/schedule", 200, 0.02)
	m.Observe("/v1/schedule", 400, 0.001)
	m.Observe("/v1/latency", 200, 1.5)
	m.Gauge("rayschedd_queue_depth", func() float64 { return 3 })

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wants := []string{
		`rayschedd_requests_total{endpoint="/v1/schedule",code="200"} 2`,
		`rayschedd_requests_total{endpoint="/v1/schedule",code="400"} 1`,
		`rayschedd_requests_total{endpoint="/v1/latency",code="200"} 1`,
		`rayschedd_request_duration_seconds_count{endpoint="/v1/schedule"} 3`,
		`rayschedd_request_duration_seconds_bucket{endpoint="/v1/latency",le="+Inf"} 1`,
		`rayschedd_queue_depth 3`,
		"# TYPE rayschedd_requests_total counter",
		"# TYPE rayschedd_request_duration_seconds histogram",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMetricsHistogramCumulative(t *testing.T) {
	m := NewMetrics()
	// Observations clamped into the domain still land in buckets: one far
	// below the 1µs floor, one far above the 100s ceiling.
	m.Observe("/x", 200, 1e-9)
	m.Observe("/x", 200, 1e9)
	var sb strings.Builder
	m.WriteTo(&sb)
	out := sb.String()
	if !strings.Contains(out, `rayschedd_request_duration_seconds_bucket{endpoint="/x",le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket must count every observation:\n%s", out)
	}
	if !strings.Contains(out, `rayschedd_request_duration_seconds_count{endpoint="/x"} 2`) {
		t.Fatalf("count series wrong:\n%s", out)
	}
}

// TestQuantileSeries: the p50/p95/p99 the /healthz document carries per
// endpoint, derived from the latency histograms. Values are
// bucket-resolution (the log-spaced buckets span a quarter decade), so the
// assertions use generous factor bounds rather than exact equality.
func TestQuantileSeries(t *testing.T) {
	m := NewMetrics()
	if eps := m.endpointSummaries(); len(eps) != 0 {
		t.Fatalf("summaries with no observations: %+v", eps)
	}

	// 100 requests at ~10ms and 10 stragglers at ~1s: the median must sit in
	// the 10ms region and the p99 in the 1s region.
	for i := 0; i < 100; i++ {
		m.Observe("/v1/estimate", 200, 0.01)
	}
	for i := 0; i < 10; i++ {
		m.Observe("/v1/estimate", 200, 1.0)
	}
	eps := m.endpointSummaries()
	if len(eps) != 1 || eps[0].Endpoint != "/v1/estimate" || eps[0].Requests != 110 {
		t.Fatalf("summaries = %+v, want one /v1/estimate endpoint with 110 requests", eps)
	}
	q := eps[0]
	if q.P50 < 0.003 || q.P50 > 0.03 {
		t.Fatalf("p50 = %g, want ~0.01", q.P50)
	}
	if q.P99 < 0.3 || q.P99 > 3 {
		t.Fatalf("p99 = %g, want ~1.0", q.P99)
	}
	if !(q.P50 <= q.P95 && q.P95 <= q.P99) {
		t.Fatalf("quantiles not monotone: %+v", q)
	}
}

func TestMetricsDeterministicOrder(t *testing.T) {
	m := NewMetrics()
	m.Observe("/b", 200, 0.1)
	m.Observe("/a", 200, 0.1)
	var s1, s2 strings.Builder
	m.WriteTo(&s1)
	m.WriteTo(&s2)
	if s1.String() != s2.String() {
		t.Fatal("non-deterministic render")
	}
	if strings.Index(s1.String(), `endpoint="/a"`) > strings.Index(s1.String(), `endpoint="/b"`) {
		t.Fatal("endpoints not sorted")
	}
}
