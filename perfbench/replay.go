package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"rayfade/internal/capacity"
	"rayfade/internal/fading"
	"rayfade/internal/netio"
	"rayfade/internal/network"
	"rayfade/internal/rng"
	"rayfade/internal/server"
	"rayfade/internal/transform"
)

// replayComputeCap bounds how many distinct responses the replay
// recomputes, keeping a traced run's replay under a second or two.
const replayComputeCap = 200

// estimateBody and scheduleBody mirror rayschedd's /v1/estimate and
// /v1/schedule response documents field for field, so the replay's
// json.Marshal produces the daemon's bytes exactly when the replayed
// computation matches the daemon's.
type estimateBody struct {
	Links   int     `json:"links"`
	Beta    float64 `json:"beta"`
	Prob    float64 `json:"prob"`
	Seed    uint64  `json:"seed"`
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	Stderr  float64 `json:"stderr"`
	Exact   float64 `json:"exact"`
}

type scheduleBody struct {
	Algorithm        string    `json:"algorithm"`
	Links            int       `json:"links"`
	Beta             float64   `json:"beta"`
	Set              []int     `json:"set"`
	Size             int       `json:"size"`
	Value            float64   `json:"value"`
	Powers           []float64 `json:"powers,omitempty"`
	Lemma2Floor      float64   `json:"lemma2_floor"`
	ExpectedRayleigh float64   `json:"expected_rayleigh_successes"`
}

// The daemon's defaults for the fields the mix leaves unset.
const (
	serveBeta = 2.5
	serveProb = 0.5
)

// replayStats collects the per-layer costs of a replay.
type replayStats struct {
	loadUS, saveUS, hashUS, encodeUS []float64
	cacheUS, sessionUS               []float64
	estimateUS, scheduleUS           []float64
	inlineBytes                      []float64
	fading                           fadingTally
	checked, mismatches              int
}

// fadingTally counts Rayleigh sampling work: realizations (one SINR draw
// per active set), exponential draws (|S|² per realization) and the time
// spent in fading.CountSuccesses.
type fadingTally struct {
	realizations, draws int64
	busy                time.Duration
}

func (f *fadingTally) add(o fadingTally) {
	f.realizations += o.realizations
	f.draws += o.draws
	f.busy += o.busy
}

// countSuccesses is fading.CountSuccesses, timed and tallied.
func (f *fadingTally) countSuccesses(m *network.Matrix, active []bool, beta float64, src *rng.Source, vals []float64, idx []int) int {
	k := 0
	for _, a := range active {
		if a {
			k++
		}
	}
	t0 := time.Now()
	c := fading.CountSuccesses(m, active, beta, src, vals, idx)
	f.busy += time.Since(t0)
	f.realizations++
	f.draws += int64(k * k)
	return c
}

// nsPerDraw is the time in fading.CountSuccesses per exponential draw.
func (f *fadingTally) nsPerDraw() float64 {
	return float64(f.busy.Nanoseconds()) / float64(f.draws)
}

func (f *fadingTally) report(res *result) {
	res.set("fading.realizations", float64(f.realizations))
	res.set("fading.exp_draws", float64(f.draws))
	res.set("fading.busy_s", f.busy.Seconds())
	if f.draws > 0 {
		res.set("fading.ns_per_draw", f.nsPerDraw())
	}
}

func since(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// replay pushes the step's distinct request bodies back through the
// layers' public functions in this process: the topology parse and
// canonical re-encoding (netio), the key hash (server.TopologyRef), the
// response cache and session store, the estimate and schedule kernels, and
// the response encoding. Each recomputed response is compared byte for
// byte with the daemon's.
func replay(ss []sample, pop *population, bodies map[string][]byte) (*replayStats, error) {
	rs := &replayStats{}
	inlineSeen := map[string]bool{}
	cache := server.NewCache(256)
	sessions := server.NewSessionStore(128)
	for t, canon := range pop.topos {
		net, err := netio.Load(bytes.NewReader(canon))
		if err != nil {
			return nil, fmt.Errorf("replay: load topology %d: %w", t, err)
		}
		if _, _, err := sessions.Put(canon, net); err != nil {
			return nil, fmt.Errorf("replay: register topology %d: %w", t, err)
		}
	}
	computed := map[string]bool{}
	for _, s := range ss {
		if s.failed || s.form == formUpload {
			continue
		}
		if s.form == formInline {
			rs.inlineBytes = append(rs.inlineBytes, float64(len(s.body)))
			if !inlineSeen[s.key] {
				inlineSeen[s.key] = true
				if err := rs.parse(s.body); err != nil {
					return nil, err
				}
			}
		}
		if s.form == formRef {
			t0 := time.Now()
			_, _, ok := sessions.Get(pop.refs[s.topo])
			rs.sessionUS = append(rs.sessionUS, since(t0))
			if !ok {
				return nil, fmt.Errorf("replay: session for topology %d missing", s.topo)
			}
		}
		t0 := time.Now()
		_, hit := cache.Get(s.key)
		rs.cacheUS = append(rs.cacheUS, since(t0))
		body := bodies[s.key]
		if !hit {
			cache.Put(s.key, body)
		}
		if computed[s.key] || len(computed) >= replayComputeCap {
			continue
		}
		computed[s.key] = true
		if err := rs.recompute(s.request, pop, body); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// parse times the inline topology's decode, canonical re-encoding and key
// hash, as the daemon does them for every inline request.
func (rs *replayStats) parse(body []byte) error {
	var req struct {
		Network json.RawMessage `json:"network"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("replay: decode request: %w", err)
	}
	t0 := time.Now()
	net, err := netio.Load(bytes.NewReader(req.Network))
	rs.loadUS = append(rs.loadUS, since(t0))
	if err != nil {
		return fmt.Errorf("replay: load inline topology: %w", err)
	}
	var canon bytes.Buffer
	t0 = time.Now()
	err = netio.Save(&canon, net)
	rs.saveUS = append(rs.saveUS, since(t0))
	if err != nil {
		return fmt.Errorf("replay: save topology: %w", err)
	}
	t0 = time.Now()
	server.TopologyRef(canon.Bytes())
	rs.hashUS = append(rs.hashUS, since(t0))
	return nil
}

// recompute runs the request's kernel in process, encodes the response and
// compares it with the daemon's body.
func (rs *replayStats) recompute(r request, pop *population, want []byte) error {
	var doc any
	var err error
	if r.form == formSchedule {
		doc, err = rs.schedule(pop.scheds[r.topo])
	} else {
		doc, err = rs.estimate(pop.topos[r.topo], r.seed)
	}
	if err != nil {
		return err
	}
	t0 := time.Now()
	got, err := json.Marshal(doc)
	rs.encodeUS = append(rs.encodeUS, since(t0))
	if err != nil {
		return fmt.Errorf("replay: encode: %w", err)
	}
	rs.checked++
	if !bytes.Equal(got, want) {
		rs.mismatches++
		logf("replay: %s: in-process result differs from the daemon's", r.key)
	}
	return nil
}

// estimate replicates the daemon's Monte-Carlo estimate kernel; the time
// recorded excludes the topology parse, as the daemon's compute does.
func (rs *replayStats) estimate(canon []byte, seed uint64) (*estimateBody, error) {
	net, err := netio.Load(bytes.NewReader(canon))
	if err != nil {
		return nil, fmt.Errorf("replay: load topology: %w", err)
	}
	t0 := time.Now()
	m := net.Gains()
	q := fading.UniformProbs(m.N, serveProb)
	src := rng.New(seed)
	active := make([]bool, m.N)
	vals := make([]float64, m.N)
	idx := make([]int, 0, m.N)
	var sum, sumSq float64
	for s := 0; s < mixSamples; s++ {
		for i := range active {
			active[i] = src.Bernoulli(q[i])
		}
		c := float64(rs.fading.countSuccesses(m, active, serveBeta, src, vals, idx))
		sum += c
		sumSq += c * c
	}
	n := float64(mixSamples)
	mu := sum / n
	variance := math.Max(0, sumSq/n-mu*mu)
	out := &estimateBody{
		Links: m.N, Beta: serveBeta, Prob: serveProb, Seed: seed, Samples: mixSamples,
		Mean:   mu,
		Stderr: math.Sqrt(variance / n),
		Exact:  fading.ExpectedSuccessesExact(m, q, serveBeta),
	}
	rs.estimateUS = append(rs.estimateUS, since(t0))
	return out, nil
}

// schedule replicates the daemon's greedy /v1/schedule kernel.
func (rs *replayStats) schedule(canon []byte) (*scheduleBody, error) {
	net, err := netio.Load(bytes.NewReader(canon))
	if err != nil {
		return nil, fmt.Errorf("replay: load topology: %w", err)
	}
	t0 := time.Now()
	m := net.Gains()
	set, err := capacity.GreedyAffectanceCtx(context.Background(), m, serveBeta, capacity.DefaultTau, capacity.LengthOrder(net))
	if err != nil {
		return nil, fmt.Errorf("replay: schedule: %w", err)
	}
	if set == nil {
		set = []int{}
	}
	out := &scheduleBody{
		Algorithm: "greedy", Links: m.N, Beta: serveBeta, Set: set, Size: len(set),
		Value:            float64(len(set)),
		ExpectedRayleigh: fading.ExpectedBinaryValueOfSet(m, set, serveBeta),
	}
	out.Lemma2Floor = out.Value * transform.LossFactor
	rs.scheduleUS = append(rs.scheduleUS, since(t0))
	return out, nil
}

func (rs *replayStats) report(res *result) {
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			res.set(name, median(xs))
		}
	}
	set("netio.load_us", rs.loadUS)
	set("netio.save_us", rs.saveUS)
	set("key.hash_us", rs.hashUS)
	set("encode.us", rs.encodeUS)
	set("cache.get_us", rs.cacheUS)
	set("session.get_us", rs.sessionUS)
	set("compute.estimate_us", rs.estimateUS)
	set("compute.schedule_us", rs.scheduleUS)
	res.set("netio.bytes_per_req", mean(rs.inlineBytes))
	rs.fading.report(res)
}
