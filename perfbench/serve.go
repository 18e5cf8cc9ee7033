package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rayfade/internal/obs"
	"rayfade/internal/rng"
)

// The serve-mix load plan. The nominal rate is about a third of the rate
// at which rayschedd saturates on a 2-CPU machine; the ladder climbs from
// well below that knee to more than twice it, so a machine or a commit that
// serves twice as fast still finds its knee on the ladder. Rates are fixed,
// not calibrated per machine, so two commits are offered identical load.
//
// A shared machine has slow spells lasting seconds, so a run does not
// measure each rate once in one stretch: it climbs and descends the ladder
// ladderReps times, with a nominal-rate block before every few ladder
// steps, and each figure is a median over its blocks or passes. An
// unmeasured stretch at the nominal rate first fills the response cache.
const (
	nominalRPS    = 500.0
	p99LimitMS    = 50.0 // latency limit on the tail percentile, ms
	warmShare     = 0.1  // share of --seconds filling the cache, unmeasured
	nominalShare  = 0.2  // share of --seconds spent at the nominal rate
	stepsPerBlock = 2    // ladder steps between nominal blocks
	ladderReps    = 5
	setupRepeats  = 9 // daemon starts per run; setup_s is their median
	overheadPairs = 8 // traced/untraced nominal block pairs of a traced run
	healthTimeout = 30 * time.Second
)

// ladder multiplies the nominal rate for the ladder's steps: 900 to
// 3,200 requests/s, about 15% apart.
var ladder = []float64{1.8, 2.2, 2.6, 3.0, 3.4, 3.9, 4.6, 5.4, 6.4}

// step is one fixed-rate phase of the run and its verdict.
type step struct {
	rate    float64
	samples []sample
	p50     float64 // ms from scheduled send
	tail    float64 // ms at tailPct
	tailPct float64
	failed  int
	// load is how close the step came to its limits: the larger of its
	// tail over the limit and its late connection wait over half the limit
	// (+Inf when a request failed). The step passes when load <= 1.
	load float64
}

func (st step) pass() bool { return st.load <= 1 }

// evalStep judges a step: it passes when nothing failed, the tail
// percentile meets the limit, and the requests of its last fifth waited
// for a connection for less than half the limit, so no backlog was
// building.
func evalStep(rate float64, ss []sample) step {
	st := step{rate: rate, samples: ss}
	lat := make([]float64, len(ss))
	for i, s := range ss {
		lat[i] = s.latencyMS()
		if s.failed {
			st.failed++
		}
	}
	st.p50 = median(lat)
	st.tailPct = min(99, tailPercentile(len(lat))) // the limit is set on p99
	st.tail = percentile(lat, st.tailPct)
	var late []float64
	for _, s := range ss[len(ss)*4/5:] {
		late = append(late, float64(s.send-s.sched)/1e6)
	}
	st.load = max(st.tail/p99LimitMS, median(late)/(p99LimitMS/2))
	if st.failed > 0 || st.tailPct == 0 {
		st.load = math.Inf(1)
	}
	return st
}

// combine merges the passes of one ladder rate into the step the knee
// search reads: its tail and load are the medians of the passes', so it
// passes when most passes did.
func combine(passes []step) step {
	st := step{rate: passes[0].rate, tailPct: passes[0].tailPct}
	var tails, loads []float64
	for _, p := range passes {
		tails = append(tails, p.tail)
		loads = append(loads, p.load)
		st.failed += p.failed
		st.samples = append(st.samples, p.samples...)
	}
	st.tail, st.load = median(tails), median(loads)
	return st
}

// maxRPS is the highest rate meeting the limits: the highest passing step,
// plus the share of the way to the next step up at which the load,
// interpolated on a log scale, crosses 1, so a rate between two steps
// reads as such instead of snapping to a step. Noise mostly makes a step
// fail, not pass, so the highest passing step is read rather than the
// first failing one.
func maxRPS(steps []step) float64 {
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		if !st.pass() {
			continue
		}
		if i == len(steps)-1 {
			return st.rate
		}
		next := steps[i+1]
		x := 0.0
		if !math.IsInf(next.load, 1) {
			x = -math.Log(st.load) / (math.Log(next.load) - math.Log(st.load))
		}
		return st.rate + x*(next.rate-st.rate)
	}
	// Even the lowest step failed: scale its rate by how far it overshot.
	return steps[0].rate / steps[0].load
}

// serveRun is the state of one serve-mix run.
type serveRun struct {
	opts    options
	pop     *population
	gen     *generator
	d       *daemon
	gaps    *rng.Source
	content *rng.Source

	attempted, failed int
}

func (r *serveRun) tally(ss []sample) {
	for _, s := range ss {
		r.attempted++
		if s.failed {
			r.failed++
		}
	}
}

// start launches a daemon and warms it up, returning the time that took.
func (r *serveRun) start() (time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin("rayschedd"))
	if err != nil {
		return 0, err
	}
	r.d = d
	if r.gen == nil {
		r.gen = newGenerator(d.base, runtime.NumCPU(), r.pop.refs)
	} else {
		r.gen.retarget(d.base)
	}
	if err := d.waitHealthy(r.gen.client, healthTimeout); err != nil {
		return 0, err
	}
	ss, err := r.gen.warmUp(r.pop)
	r.tally(ss)
	if err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// setups starts n daemons one after another, each replacing the last, and
// returns their set-up times. The last one stays up.
func (r *serveRun) setups(n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		r.stop()
		d, err := r.start()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func (r *serveRun) stop() float64 {
	if r.d == nil {
		return 0
	}
	rss := r.d.stop()
	r.d = nil
	return rss
}

// plan draws a step's requests.
func (r *serveRun) plan(rate float64, d time.Duration) ([]planned, error) {
	return poissonSchedule(r.pop, r.gaps, r.content, rate, d)
}

func newServeRun(opts options) (*serveRun, error) {
	pop, err := newPopulation(opts.seed)
	if err != nil {
		return nil, err
	}
	return &serveRun{
		opts:    opts,
		pop:     pop,
		gaps:    rng.New(opts.seed*2 + 1),
		content: rng.New(opts.seed*2 + 2),
	}, nil
}

// phase is one planned fixed-rate stretch of a run.
type phase struct {
	nominal bool
	rate    float64
	plan    []planned
}

// phases plans the run after the cache warm-up: the ladder passes,
// climbing and descending in turn, with a nominal block before every
// stepsPerBlock steps and one at the end. Every ladder step is planned to
// hold the same number of requests, so each pass of a rate has as many
// samples for its tail percentile, and the fast rates, which only need to
// show that they fail, take the least time.
func (r *serveRun) phases(seconds int) ([]phase, error) {
	total := float64(seconds) * float64(time.Second)
	steps := ladderReps * len(ladder)
	blocks := (steps+stepsPerBlock-1)/stepsPerBlock + 1
	blockDur := time.Duration(nominalShare * total / float64(blocks))
	perPass := 0.0 // seconds per request of one pass, summed over the ladder
	for _, m := range ladder {
		perPass += 1 / (m * nominalRPS)
	}
	perStep := (1 - warmShare - nominalShare) * float64(seconds) / (ladderReps * perPass) // requests
	var out []phase
	add := func(nominal bool, rate float64, d time.Duration) error {
		plan, err := r.plan(rate, d)
		out = append(out, phase{nominal: nominal, rate: rate, plan: plan})
		return err
	}
	for i := 0; i < steps; i++ {
		if i%stepsPerBlock == 0 {
			if err := add(true, nominalRPS, blockDur); err != nil {
				return nil, err
			}
		}
		k := i % len(ladder)
		if (i/len(ladder))%2 == 1 {
			k = len(ladder) - 1 - k
		}
		rate := ladder[k] * nominalRPS
		if err := add(false, rate, time.Duration(perStep/rate*float64(time.Second))); err != nil {
			return nil, err
		}
	}
	if err := add(true, nominalRPS, blockDur); err != nil {
		return nil, err
	}
	return out, nil
}

// runServeMix measures the end-to-end serve-mix metrics: set-up time, the
// daemon CPU per request at the nominal rate, the ladder's highest
// sustainable rate, and the daemon's peak RSS. The nominal blocks' median
// latencies are logged; they are a per-layer figure of the traced run,
// because on a shared machine they spread too widely from run to run to
// hold a regression bound.
func runServeMix(opts options) (*result, error) {
	r, err := newServeRun(opts)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	// Set-up is timed on daemons started before and after the measured
	// phases, so one slow spell of the machine does not set its median. The
	// last daemon started before is the measured one.
	setups, err := r.setups(setupRepeats/2 + 1)
	if err != nil {
		return nil, err
	}
	defer r.gen.close()

	warm, err := r.plan(nominalRPS, time.Duration(warmShare*float64(opts.seconds)*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	r.tally(r.gen.run(warm, nil))
	phases, err := r.phases(opts.seconds)
	if err != nil {
		return nil, err
	}
	var p50s, cpuPerK []float64
	var nominal []sample
	passes := map[float64][]step{}
	for _, ph := range phases {
		cpu0, err := r.d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		st := evalStep(ph.rate, r.gen.run(ph.plan, nil))
		cpu1, err := r.d.cpuSeconds()
		if err != nil {
			return nil, err
		}
		r.tally(st.samples)
		if ph.nominal {
			p50s = append(p50s, st.p50)
			cpuPerK = append(cpuPerK, (cpu1-cpu0)/float64(len(st.samples))*1000)
			nominal = append(nominal, st.samples...)
		} else {
			passes[st.rate] = append(passes[st.rate], st)
		}
	}
	// The nominal rate heads the ladder, judged on its pooled blocks.
	steps := []step{evalStep(nominalRPS, nominal)}
	for _, m := range ladder {
		st := combine(passes[m*nominalRPS])
		steps = append(steps, st)
		logf("serve-mix %.0f/s: n=%d median p%g=%.2fms load=%.2f pass=%v", st.rate, len(st.samples), st.tailPct, st.tail, st.load, st.pass())
	}
	logf("serve-mix nominal %.0f/s: block p50s %v ms", nominalRPS, p50s)
	rss := r.stop()
	after, err := r.setups(setupRepeats / 2)
	if err != nil {
		return nil, err
	}
	setups = append(setups, after...)
	logf("serve-mix: daemon set-ups %v s", setups)

	// The knee search is an operation of its own: it fails when even the
	// top rate met the limit, because throughput_per_s then reads the top
	// of the ladder rather than the knee.
	r.attempted++
	if top := steps[len(steps)-1]; top.pass() {
		r.failed++
		logf("serve-mix: the top ladder rate %.0f/s met the limit, so the knee is above the ladder", top.rate)
	}
	res := newResult(r.attempted, r.failed)
	res.set("throughput_per_s", maxRPS(steps))
	res.set("cpu_s", median(cpuPerK))
	res.set("peak_rss_mb", rss)
	res.set("setup_s", median(setups))
	return res, nil
}

// runServeMixTraced runs the cache warm-up and a nominal step with all
// tracing off, reading /metrics around the step from outside: the
// per-layer request-path split. Traced and untraced nominal blocks then
// alternate on the same daemon, one client span per request in the traced
// ones; the median over the pairs of their p50 difference is the tracing
// overhead, so slow spells of the machine, which outlast a pair, cancel.
// The distinct bodies of the untraced step are then replayed through the
// layers' public functions.
func runServeMixTraced(opts options) (*result, error) {
	r, err := newServeRun(opts)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	if _, err := r.start(); err != nil {
		return nil, err
	}
	defer r.gen.close()
	sec := float64(opts.seconds) * float64(time.Second)
	warm, err := r.plan(nominalRPS, time.Duration(warmShare*sec))
	if err != nil {
		return nil, err
	}
	plan, err := r.plan(nominalRPS, time.Duration(nominalShare*sec))
	if err != nil {
		return nil, err
	}
	r.tally(r.gen.run(warm, nil))
	before, err := readMetrics(r.gen.client, r.d.base)
	if err != nil {
		return nil, err
	}
	untraced := evalStep(nominalRPS, r.gen.run(plan, nil))
	after, err := readMetrics(r.gen.client, r.d.base)
	if err != nil {
		return nil, err
	}
	r.tally(untraced.samples)

	blockDur := time.Duration(nominalShare * sec / (2 * overheadPairs))
	var pairs [overheadPairs][2][]planned // untraced, traced
	spans := 16
	for i := range pairs {
		for j := range pairs[i] {
			if pairs[i][j], err = r.plan(nominalRPS, blockDur); err != nil {
				return nil, err
			}
		}
		spans += len(pairs[i][1])
	}
	tr := obs.NewTracer(spans)
	var overhead []float64
	for i, pair := range pairs {
		var p50 [2]float64
		for k := 0; k < 2; k++ {
			j := (i + k) % 2 // alternate which of the pair goes first
			var t *obs.Tracer
			if j == 1 {
				t = tr
			}
			st := evalStep(nominalRPS, r.gen.run(pair[j], t))
			r.tally(st.samples)
			p50[j] = st.p50
		}
		overhead = append(overhead, (p50[1]-p50[0])/p50[0]*100)
	}
	r.stop()
	logf("serve-mix: tracing overhead per pair %v %%", overhead)

	res := newResult(r.attempted, r.failed)
	requestMetrics(res, untraced, after.delta(before), after)
	res.set("trace.overhead_pct", median(overhead))

	rep, err := replay(untraced.samples, r.pop, r.gen.bodies)
	if err != nil {
		return nil, err
	}
	rep.report(res)
	res.Failed += rep.mismatches
	res.Attempted += rep.checked

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("serve-mix-seed%d.json", opts.seed))
	if err := tr.WriteTraceFile(path); err != nil {
		return nil, err
	}
	logf("serve-mix: wrote %d client spans to %s", tr.Recorded(), path)
	return res, nil
}

// requestMetrics records the per-class latencies, the generator's own
// figures, and the daemon's counters over the step (d is the /metrics
// delta across it, end the page read after it).
func requestMetrics(res *result, st step, d, end scrape) {
	byClass := map[string][]float64{}
	var lag, wait, clientMS []float64
	sent, completed, failed := 0, 0, 0
	for _, s := range st.samples {
		sent++
		if s.failed {
			failed++
		} else {
			completed++
			clientMS = append(clientMS, float64(s.done-s.send)/1e6)
		}
		byClass[s.class] = append(byClass[s.class], s.latencyMS())
		lag = append(lag, float64(s.lag)/1e6)
		wait = append(wait, float64(s.send-s.sched)/1e6)
	}
	res.set("req.count", float64(len(st.samples)))
	res.set("req.p50_ms", st.p50)
	res.set("req.tail_ms", st.tail)
	res.set("req.tail_pct", st.tailPct)
	for _, c := range []string{classHitInline, classHitRef, classMiss, classUpload, classSchedule} {
		if xs := byClass[c]; len(xs) > 0 {
			res.set("req."+c+"_p50_ms", median(xs))
		}
	}
	res.set("req.error_rate", float64(failed)/float64(sent))
	res.set("gen.sent", float64(sent))
	res.set("gen.completed", float64(completed))
	res.set("gen.failed", float64(failed))
	res.set("gen.lag_p99_ms", percentile(lag, 99))
	res.set("gen.conn_wait_p99_ms", percentile(wait, 99))

	if h, m := d.sum("rayschedd_cache_hits_total"), d.sum("rayschedd_cache_misses_total"); h+m > 0 {
		res.set("cache.hit_ratio", h/(h+m))
	}
	res.set("cache.entries", end.sum("rayschedd_cache_entries"))
	if h, m := d.sum("rayschedd_session_hits_total"), d.sum("rayschedd_session_misses_total"); h+m > 0 {
		res.set("session.hit_ratio", h/(h+m))
	}
	res.set("session.evictions", d.sum("rayschedd_session_evictions_total"))
	res.set("flight.shared", d.sum("rayschedd_singleflight_shared_total"))
	if n := d.sum("rayschedd_queue_wait_seconds_count"); n > 0 {
		res.set("pool.queue_wait_ms", d.sum("rayschedd_queue_wait_seconds_sum")/n*1000)
	}
	res.set("pool.queue_wait_p99_ms", d.histQuantile("rayschedd_queue_wait_seconds", 0.99)*1000)
	res.set("server.shed", d.sum("rayschedd_shed_requests_total"))
	var serverSum, serverN float64
	for _, ep := range []string{"estimate", "topology", "schedule"} {
		label := fmt.Sprintf(`endpoint="/v1/%s"`, ep)
		sum, n := d.sum("rayschedd_request_duration_seconds_sum", label), d.sum("rayschedd_request_duration_seconds_count", label)
		serverSum += sum
		serverN += n
		if n > 0 {
			res.set("server.request_ms."+ep, sum/n*1000)
		}
	}
	if serverN > 0 && len(clientMS) > 0 {
		res.set("server.outside_ms", mean(clientMS)-serverSum/serverN*1000)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
