package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"rayfade/internal/fading"
	"rayfade/internal/geom"
	"rayfade/internal/network"
	"rayfade/internal/obs"
	"rayfade/internal/rng"
	"rayfade/internal/sim"
	"rayfade/internal/sinr"
	"rayfade/internal/stats"
)

// The paper's Figure-1 model parameters: sim.Figure1Config's defaults,
// which raysched figure1 uses. TestReplicaMatchesRunFigure1 pins the
// replica to sim.RunFigure1.
const (
	fig1Beta  = 2.5
	fig1Alpha = 2.2
	fig1Noise = 4e-7
	fig1DMin  = 20
	fig1DMax  = 40
	fig1Side  = 1000
	fig1Power = 2
)

// fig1Config is one Figure-1 run: the grid sizes raysched figure1 takes as
// flags.
type fig1Config struct {
	networks, links, txSeeds, fadeSeeds, points int
	seed                                        uint64
	workers                                     int
}

// args is the raysched command line for the run, with CSV output.
func (c fig1Config) args() []string {
	return []string{"figure1",
		"-networks", fmt.Sprint(c.networks), "-links", fmt.Sprint(c.links),
		"-txseeds", fmt.Sprint(c.txSeeds), "-fadeseeds", fmt.Sprint(c.fadeSeeds),
		"-points", fmt.Sprint(c.points), "-seed", fmt.Sprint(c.seed),
		"-workers", fmt.Sprint(c.workers), "-format", "csv"}
}

// realizations is the number of Rayleigh realizations the run samples.
func (c fig1Config) realizations() int {
	return c.networks * 2 * c.points * c.txSeeds * c.fadeSeeds
}

// repLayers is the time one replication spent in each layer.
type repLayers struct {
	start                time.Time
	dur                  time.Duration
	build, sinr, stats   time.Duration
	sinrCalls, transmits int64
	observes             int64
	fading               fadingTally
}

// replicaRun is a traced Figure-1 run.
type replicaRun struct {
	csv     []byte
	workers int
	reps    []repLayers
	fanout  time.Duration // sim.ParallelCtx, wall
	merge   time.Duration // merging the per-network curves
	render  time.Duration // sim.WriteSeriesCSV
}

func newCurves(probs []float64) map[string]*stats.Series {
	return map[string]*stats.Series{
		sim.CurveUniformNonFading: stats.NewSeries(probs),
		sim.CurveUniformRayleigh:  stats.NewSeries(probs),
		sim.CurveSqrtNonFading:    stats.NewSeries(probs),
		sim.CurveSqrtRayleigh:     stats.NewSeries(probs),
	}
}

// runReplica reproduces raysched figure1 from the layers' public functions,
// timing the calls into each layer. It runs inside sim.ParallelCtx on the
// same split streams as sim.RunFigure1, draws in the same order, and feeds
// every series the same observations in the same order, so its CSV is
// byte-identical. Observations are buffered per grid point and fed to the
// series in one timed batch, so stats time is not swamped by timer calls.
// ctx may carry an obs tracer, which then records sim's fan-out spans.
func runReplica(ctx context.Context, c fig1Config) (*replicaRun, error) {
	probs := stats.Linspace(0.05, 1.0, c.points)
	netCfg := network.Config{N: c.links, Area: geom.Square(fig1Side),
		DMin: fig1DMin, DMax: fig1DMax, Alpha: fig1Alpha, Noise: fig1Noise}
	powers := []struct {
		name string
		pa   network.PowerAssignment
	}{
		{"uniform", network.UniformPower{P: fig1Power}},
		{"sqrt", network.SquareRootPower{Scale: fig1Power, Alpha: fig1Alpha}},
	}
	reps := make([]repLayers, c.networks) // replication r writes only reps[r]
	errs := make([]error, c.networks)
	body := func(rep int, src *rng.Source) map[string]*stats.Series {
		lt := &reps[rep]
		lt.start = time.Now()
		curves := newCurves(probs)
		t0 := time.Now()
		net, err := network.Random(netCfg, src)
		lt.build += time.Since(t0)
		if err != nil {
			errs[rep] = err
			return curves
		}
		active := make([]bool, c.links)
		vals := make([]float64, c.links)
		idx := make([]int, 0, c.links)
		nf := make([]float64, 0, c.txSeeds)
		rl := make([]float64, 0, c.txSeeds*c.fadeSeeds)
		for _, pw := range powers {
			t0 = time.Now()
			m := net.Clone().ApplyPower(pw.pa).Gains()
			lt.build += time.Since(t0)
			nfSeries, rlSeries := curves[pw.name+"/non-fading"], curves[pw.name+"/rayleigh"]
			for pi, p := range probs {
				q := fading.UniformProbs(m.N, p)
				nf, rl = nf[:0], rl[:0]
				for ts := 0; ts < c.txSeeds; ts++ {
					for i := range active {
						active[i] = src.Bernoulli(q[i])
					}
					lt.transmits += int64(len(active))
					t0 = time.Now()
					sinr.ValuesInto(m, active, vals)
					count := 0
					for i, a := range active {
						if a && vals[i] >= fig1Beta {
							count++
						}
					}
					lt.sinr += time.Since(t0)
					lt.sinrCalls++
					nf = append(nf, float64(count))
					for fs := 0; fs < c.fadeSeeds; fs++ {
						rl = append(rl, float64(lt.fading.countSuccesses(m, active, fig1Beta, src, vals, idx)))
					}
				}
				t0 = time.Now()
				for _, y := range nf {
					nfSeries.Observe(pi, y)
				}
				for _, y := range rl {
					rlSeries.Observe(pi, y)
				}
				lt.stats += time.Since(t0)
				lt.observes += int64(len(nf) + len(rl))
			}
		}
		lt.dur = time.Since(lt.start)
		return curves
	}

	run := &replicaRun{reps: reps, workers: c.workers}
	t0 := time.Now()
	perNet, err := sim.ParallelCtx(ctx, c.networks, c.workers, rng.New(c.seed), body)
	run.fanout = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("figure-1 replica: %w", err)
	}
	for rep, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("figure-1 replica: network %d: %w", rep, err)
		}
	}
	t0 = time.Now()
	total := newCurves(probs)
	for _, curves := range perNet {
		for k, s := range curves {
			total[k].Merge(s)
		}
	}
	run.merge = time.Since(t0)
	var buf bytes.Buffer
	t0 = time.Now()
	err = sim.WriteSeriesCSV(&buf, "prob", probs, sortedKeys(total), total)
	run.render = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("figure-1 replica: render: %w", err)
	}
	run.csv = buf.Bytes()
	return run, nil
}

// report records the per-layer split of the run.
func (run *replicaRun) report(res *result) {
	var f fadingTally
	var build, sinrBusy, statsBusy, busy time.Duration
	var sinrCalls, transmits int64
	for _, lt := range run.reps {
		f.add(lt.fading)
		build += lt.build
		sinrBusy += lt.sinr
		statsBusy += lt.stats
		busy += lt.dur
		sinrCalls += lt.sinrCalls
		transmits += lt.transmits
	}
	f.report(res)
	res.set("sim.replications", float64(len(run.reps)))
	res.set("sim.rep_busy_s", busy.Seconds())
	res.set("sim.render_s", run.render.Seconds())
	res.set("network.build_s", build.Seconds())
	res.set("sinr.calls", float64(sinrCalls))
	res.set("sinr.busy_s", sinrBusy.Seconds())
	res.set("rng.transmit_draws", float64(transmits))
	res.set("stats.busy_s", (statsBusy + run.merge).Seconds())
}

// reportFanout records how the run's sim.ParallelCtx fan-out went: the
// slowest replication against the median one, the fan-out's wall time and
// how busy its workers were, and the cost of a draw inside it, to set
// against fading.ns_per_draw of a serial run.
func (run *replicaRun) reportFanout(res *result) {
	var f fadingTally
	var busy time.Duration
	durs := make([]float64, len(run.reps))
	for i, lt := range run.reps {
		f.add(lt.fading)
		busy += lt.dur
		durs[i] = lt.dur.Seconds()
	}
	sort.Float64s(durs)
	res.set("sim.rep_max_over_median", durs[len(durs)-1]/median(durs))
	res.set("sim.fanout_wall_s", run.fanout.Seconds())
	res.set("sim.utilization", busy.Seconds()/(run.fanout.Seconds()*float64(run.workers)))
	res.set("sim.fanout_ns_per_draw", f.nsPerDraw())
}

// layerSpans lays out one span per (replication, layer) for the Chrome
// trace: a replication span over its real interval, and under it one span
// per layer whose length is the layer's total time in that replication.
// Layer calls interleave thousands of times per replication, so the layer
// spans are packed end to end from the replication's start rather than
// placed at real times; the gap left at the end is the replication's self
// time (transmit-set draws and loop overhead).
func (run *replicaRun) layerSpans(epoch time.Time) []obs.SpanRecord {
	var out []obs.SpanRecord
	id := uint64(0)
	for rep, lt := range run.reps {
		id++
		root := id
		start := lt.start.Sub(epoch)
		out = append(out, obs.SpanRecord{ID: root, Root: root, Name: "figure1.replication",
			Start: start, Dur: lt.dur, Attrs: []obs.Attr{{Key: "rep", Value: rep}}})
		for _, l := range []struct {
			name  string
			dur   time.Duration
			calls int64
		}{
			{"network.build", lt.build, 3}, // network.Random and one gain matrix per power
			{"sinr.values", lt.sinr, lt.sinrCalls},
			{"fading.count_successes", lt.fading.busy, lt.fading.realizations},
			{"stats.observe", lt.stats, lt.observes},
		} {
			id++
			out = append(out, obs.SpanRecord{ID: id, Parent: root, Root: root, Name: l.name,
				Start: start, Dur: l.dur, Attrs: []obs.Attr{{Key: "calls", Value: l.calls}}})
			start += l.dur
		}
	}
	return out
}
