package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"rayfade/internal/rng"
	"rayfade/internal/sim"
	"rayfade/internal/stats"
)

func TestPoissonScheduleDeterministicAndAtRate(t *testing.T) {
	plan := func(seed uint64, rate float64, d time.Duration) []planned {
		t.Helper()
		p, err := newPopulation(seed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := poissonSchedule(p, rng.New(seed*2+1), rng.New(seed*2+2), rate, d)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := plan(3, 500, 20*time.Second), plan(3, 500, 20*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed planned %d and %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].key != b[i].key || a[i].form != b[i].form || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two plans of one seed", i)
		}
	}
	c := plan(4, 500, 20*time.Second)
	if len(c) == len(a) && c[0].at == a[0].at && c[0].key == a[0].key {
		t.Fatal("seeds 3 and 4 planned the same schedule")
	}
	// 10000 expected arrivals: a Poisson count has standard deviation 100.
	if n := float64(len(a)); math.Abs(n-10000) > 400 {
		t.Fatalf("planned %v requests at 500/s over 20 s, want 10000±400", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at || a[i].at >= 20*time.Second {
			t.Fatalf("request %d scheduled at %v out of order or past the step", i, a[i].at)
		}
	}
	forms := map[string]int{}
	for _, r := range a {
		forms[r.form]++
	}
	for form, want := range map[string]float64{formInline: 0.425, formRef: 0.425, formUpload: 0.10, formSchedule: 0.05} {
		if got := float64(forms[form]) / float64(len(a)); math.Abs(got-want) > 0.02 {
			t.Errorf("form %s is %.3f of the mix, want %.3f", form, got, want)
		}
	}
}

// TestPhasesPlanTheLadder checks the load plan: every ladder rate is
// visited ladderReps times, every ladder step holds about the same number
// of requests (enough at 45 s for a true p99), the nominal blocks take
// nominalShare of the time, and the ladder reaches twice the knee of
// the machine the benchmark was built on.
func TestPhasesPlanTheLadder(t *testing.T) {
	r, err := newServeRun(options{seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const seconds = 45
	phases, err := r.phases(seconds)
	if err != nil {
		t.Fatal(err)
	}
	visits := map[float64]int{}
	var steps, nominal int
	var nominalTime time.Duration
	for _, ph := range phases {
		if ph.nominal {
			nominal++
			if n := len(ph.plan); n > 0 {
				nominalTime += ph.plan[n-1].at
			}
			continue
		}
		visits[ph.rate]++
		steps += len(ph.plan)
	}
	for _, m := range ladder {
		if visits[m*nominalRPS] != ladderReps {
			t.Errorf("rate %v visited %d times, want %d", m*nominalRPS, visits[m*nominalRPS], ladderReps)
		}
	}
	perStep := float64(steps) / float64(ladderReps*len(ladder))
	if perStep < 1000 {
		t.Errorf("%.0f requests per ladder step at %d s, want at least 1000 for a p99", perStep, seconds)
	}
	for _, ph := range phases {
		if n := float64(len(ph.plan)); !ph.nominal && math.Abs(n-perStep) > 5*math.Sqrt(perStep) {
			t.Errorf("ladder step at %v/s holds %v requests, want about %.0f", ph.rate, n, perStep)
		}
	}
	if want := nominalShare * seconds; math.Abs(nominalTime.Seconds()-want) > 0.05*want {
		t.Errorf("nominal blocks take %v, want about %vs", nominalTime, want)
	}
	if top := ladder[len(ladder)-1] * nominalRPS; top < 2*1600 {
		t.Errorf("ladder tops out at %v/s, want at least twice the ~1,600/s knee", top)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-nearestRank(p, tc.n) < 10 {
			t.Errorf("p%v of %d leaves fewer than ten samples beyond it", p, tc.n)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median(xs); got != 500 {
		t.Errorf("median of 1..1000 = %v, want 500", got)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct{ form, xcache, want string }{
		{formInline, "hit", classHitInline},
		{formRef, "hit", classHitRef},
		{formInline, "miss", classMiss},
		{formRef, "miss", classMiss},
		{formUpload, "", classUpload},
		{formSchedule, "hit", classSchedule},
		{formSchedule, "miss", classSchedule},
		{formRef, "", classUnknown},
	} {
		if got := classify(tc.form, tc.xcache); got != tc.want {
			t.Errorf("classify(%q, %q) = %q, want %q", tc.form, tc.xcache, got, tc.want)
		}
	}
}

func TestMaxRPSInterpolatesTheKnee(t *testing.T) {
	pass := step{rate: 1000, load: 0.5}
	fail := step{rate: 1200, load: 2}
	got := maxRPS([]step{pass, fail})
	if math.Abs(got-1100) > 1e-9 { // load 1 is log-midway between the two
		t.Errorf("maxRPS = %v, want 1100", got)
	}
	if got := maxRPS([]step{pass, {rate: 1200, load: math.Inf(1), failed: 1}}); got != 1000 {
		t.Errorf("maxRPS with failures above the knee = %v, want the last passing rate 1000", got)
	}
	if got := maxRPS([]step{pass, {rate: 1200, load: 0.5}}); got != 1200 {
		t.Errorf("maxRPS with every step passing = %v, want the top rate", got)
	}
	noisy := []step{pass, fail, {rate: 1400, load: 0.5}, {rate: 1600, load: math.Inf(1), failed: 3}}
	if got := maxRPS(noisy); got != 1400 {
		t.Errorf("maxRPS past a spurious failure = %v, want the highest passing rate 1400", got)
	}
}

// TestEvalStepLoad checks that a step fails on its tail, on a backlog of
// requests waiting for a connection, or on a failed request, and that its
// load says by how much.
func TestEvalStepLoad(t *testing.T) {
	samples := func(latency, wait time.Duration, failAt int) []sample {
		ss := make([]sample, 2000)
		for i := range ss {
			at := time.Duration(i) * time.Millisecond
			ss[i] = sample{sched: at, send: at + wait, done: at + latency, failed: i == failAt}
		}
		return ss
	}
	for _, tc := range []struct {
		name          string
		latency, wait time.Duration
		failAt        int
		load          float64
	}{
		{"quiet", 10 * time.Millisecond, 0, -1, 0.2},
		{"slow tail", 100 * time.Millisecond, 0, -1, 2},
		{"backlog", 40 * time.Millisecond, 35 * time.Millisecond, -1, 1.4},
		{"failure", time.Millisecond, 0, 7, math.Inf(1)},
	} {
		st := evalStep(1000, samples(tc.latency, tc.wait, tc.failAt))
		if math.Abs(st.load-tc.load) > 1e-9 && st.load != tc.load {
			t.Errorf("%s: load %v, want %v", tc.name, st.load, tc.load)
		}
		if st.pass() != (tc.load <= 1) {
			t.Errorf("%s: pass %v with load %v", tc.name, st.pass(), st.load)
		}
	}
	st := combine([]step{{rate: 1, load: 0.5}, {rate: 1, load: 3}, {rate: 1, load: math.Inf(1), failed: 1}})
	if st.load != 3 || st.failed != 1 || st.pass() {
		t.Errorf("combine: load %v failed %d, want the median load 3 and one failure", st.load, st.failed)
	}
}

func TestParseMetricsDeltaAndQuantile(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(`# HELP x
rayschedd_cache_hits_total 10
rayschedd_queue_wait_seconds_bucket{endpoint="/v1/estimate",le="0.001"} 5
rayschedd_queue_wait_seconds_bucket{endpoint="/v1/estimate",le="0.01"} 5
rayschedd_queue_wait_seconds_bucket{endpoint="/v1/estimate",le="+Inf"} 5
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(`rayschedd_cache_hits_total 30
rayschedd_queue_wait_seconds_bucket{endpoint="/v1/estimate",le="0.001"} 95
rayschedd_queue_wait_seconds_bucket{endpoint="/v1/estimate",le="0.01"} 104
rayschedd_queue_wait_seconds_bucket{endpoint="/v1/estimate",le="+Inf"} 105
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if got := d.sum("rayschedd_cache_hits_total"); got != 20 {
		t.Errorf("hits delta = %v, want 20", got)
	}
	if got := d.histQuantile("rayschedd_queue_wait_seconds", 0.5); got != 0.001 {
		t.Errorf("median bucket = %v, want 0.001", got)
	}
	if got := d.histQuantile("rayschedd_queue_wait_seconds", 0.99); got != 0.01 {
		t.Errorf("p99 bucket = %v, want 0.01", got)
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !namePattern.MatchString(m.name) {
				t.Errorf("metric name %q does not match %s", m.name, namePattern)
			}
			if seen[m.name] {
				t.Errorf("metric name %q used twice", m.name)
			}
			seen[m.name] = true
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the lists this program
// reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestReplicaMatchesRunFigure1 pins the traced replica to the program: same
// CSV bytes as sim.RunFigure1 at one and several workers, and layer counts
// that add up.
func TestReplicaMatchesRunFigure1(t *testing.T) {
	for _, workers := range []int{1, 3} {
		c := fig1Config{networks: 3, links: 30, txSeeds: 2, fadeSeeds: 2, points: 4, seed: 7, workers: workers}
		res := sim.RunFigure1(sim.Figure1Config{Networks: c.networks, Links: c.links,
			TransmitSeeds: c.txSeeds, FadingSeeds: c.fadeSeeds,
			Probs: stats.Linspace(0.05, 1.0, c.points), Seed: c.seed, Workers: workers})
		var want bytes.Buffer
		if err := sim.WriteSeriesCSV(&want, "prob", res.Probs, res.CurveNames(), res.Curves); err != nil {
			t.Fatal(err)
		}
		run, err := runReplica(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(run.csv, want.Bytes()) {
			t.Fatalf("workers=%d: replica CSV\n%s\ndiffers from sim.RunFigure1\n%s", workers, run.csv, want.Bytes())
		}
		r := newResult(0, 0)
		run.report(r)
		run.reportFanout(r)
		if got := r.Metrics["fading.realizations"].Value; got != float64(c.realizations()) {
			t.Errorf("workers=%d: %v realizations, want %d", workers, got, c.realizations())
		}
		if got, want := r.Metrics["sinr.calls"].Value, float64(c.realizations()/c.fadeSeeds); got != want {
			t.Errorf("workers=%d: %v non-fading evaluations, want %v", workers, got, want)
		}
		if got := r.Metrics["sim.fanout_ns_per_draw"].Value; got != r.Metrics["fading.ns_per_draw"].Value {
			t.Errorf("workers=%d: fan-out ns per draw %v, want the run's fading.ns_per_draw %v",
				workers, got, r.Metrics["fading.ns_per_draw"].Value)
		}
		if len(run.layerSpans(time.Now())) != 5*c.networks {
			t.Errorf("workers=%d: want one span per (replication, layer)", workers)
		}
	}
}
