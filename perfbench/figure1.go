package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rayfade/internal/obs"
	"rayfade/internal/sim"
	"rayfade/internal/stats"
)

// The Figure-1 workloads run raysched figure1 at the paper's per-network
// parameters. The network count is the run length: each invocation covers
// fig1Networks networks, and a run repeats invocations for --seconds.
const (
	fig1Networks     = 2
	fig1Links        = 100
	fig1TxSeeds      = 25
	fig1FadeSeeds    = 10
	fig1Points       = 20
	fig1HashSeeds    = 16 // raysched seeds with a recorded CSV hash
	fig1MinRuns      = 3  // invocations per run, at least
	fig1SetupRepeats = 15
)

// figure1Hashes holds "seed sha256" lines: the SHA-256 of the CSV that
// raysched figure1 prints at fig1Networks networks for each seed
// 1..fig1HashSeeds. Regenerate with --record-hashes after a deliberate
// change to Figure-1 output.
//
//go:embed figure1.sha256
var figure1Hashes string

// fig1Seed maps a workload seed onto a raysched seed with a recorded hash.
func fig1Seed(seed uint64) uint64 { return 1 + seed%fig1HashSeeds }

func fig1For(seed uint64, workers int) fig1Config {
	return fig1Config{networks: fig1Networks, links: fig1Links, txSeeds: fig1TxSeeds,
		fadeSeeds: fig1FadeSeeds, points: fig1Points, seed: fig1Seed(seed), workers: workers}
}

// recordedHash returns the recorded CSV hash for a raysched seed.
func recordedHash(seed uint64) (string, error) {
	sc := bufio.NewScanner(strings.NewReader(figure1Hashes))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == strconv.FormatUint(seed, 10) {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("no recorded figure-1 hash for seed %d", seed)
}

// invocation is one finished raysched run.
type invocation struct {
	wall, cpu, rssMB float64
	sha              string
}

// invoke runs raysched with the configuration and collects its CSV hash,
// wall time, CPU time and peak RSS. The peak RSS is polled from /proc
// while the process runs (see peakRSSMB); a figure-1 run reaches it in its
// first replication.
func invoke(bin string, c fig1Config) (invocation, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, c.args()...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = dieWithParent()
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return invocation{}, fmt.Errorf("start raysched: %w", err)
	}
	done := make(chan struct{})
	rss := make(chan float64, 1)
	go func() {
		peak := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			// Checked before every read: once Wait has reaped the process its
			// pid may name another.
			select {
			case <-done:
				rss <- peak
				return
			default:
			}
			if mb, err := peakRSSMB(cmd.Process.Pid); err == nil {
				peak = max(peak, mb)
			}
			<-tick.C
		}
	}()
	err := cmd.Wait()
	wall := time.Since(t0).Seconds()
	close(done)
	inv := invocation{wall: wall, rssMB: <-rss}
	if err != nil {
		return invocation{}, fmt.Errorf("raysched %s: %v: %s", strings.Join(c.args(), " "), err, stderr.String())
	}
	sum := sha256.Sum256(stdout.Bytes())
	inv.cpu, inv.sha = cpuSecondsOf(cmd.ProcessState), hex.EncodeToString(sum[:])
	return inv, nil
}

// runFigure1 measures raysched figure1 end to end at the given worker
// count. Every CSV must match the recorded hash, which the serial and the
// parallel workload share, so the two are byte-identical too.
func runFigure1(opts options, workers int) (*result, error) {
	c := fig1For(opts.seed, workers)
	want, err := recordedHash(c.seed)
	if err != nil {
		return nil, err
	}
	attempted, failed := 0, 0
	// Set-up: the cost of an invocation with almost no sampling work —
	// process start, flag parsing, one network's gain matrices, rendering.
	tiny := c
	tiny.networks, tiny.txSeeds, tiny.fadeSeeds, tiny.points = 1, 1, 1, 2
	var setups []float64
	for i := 0; i < fig1SetupRepeats; i++ {
		inv, err := invoke(bin("raysched"), tiny)
		if err != nil {
			return nil, err
		}
		attempted++
		setups = append(setups, inv.wall)
	}
	var walls, cpus, rss []float64
	start := time.Now()
	for len(walls) < fig1MinRuns || time.Since(start).Seconds()+median(walls) <= float64(opts.seconds) {
		inv, err := invoke(bin("raysched"), c)
		if err != nil {
			return nil, err
		}
		attempted++
		if inv.sha != want {
			failed++
			logf("figure1 seed %d: CSV sha256 %s, recorded %s", c.seed, inv.sha, want)
		}
		walls = append(walls, inv.wall)
		cpus = append(cpus, inv.cpu)
		rss = append(rss, inv.rssMB)
	}
	logf("figure1 workers=%d: %d invocations, wall s %v", workers, len(walls), walls)
	wall := median(walls)
	res := newResult(attempted, failed)
	res.set("throughput_per_s", float64(c.realizations())/wall)
	res.set("cpu_s", median(cpus))
	res.set("peak_rss_mb", median(rss))
	res.set("setup_s", median(setups))
	return res, nil
}

// runFigure1Traced runs the Figure-1 replica with per-layer timing and
// checks its CSV against the recorded hash. It first runs sim.RunFigure1
// untraced in the same process at the same size; the difference between
// the two wall times is the tracing overhead. The sim.ParallelCtx fan-out
// metrics come from a replica at nproc workers, a pass of its own when the
// workload runs fewer, so the concurrent fan-out is measured on every
// Figure-1 workload.
func runFigure1Traced(opts options, workers int) (*result, error) {
	c := fig1For(opts.seed, workers)
	want, err := recordedHash(c.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	plain, err := sim.RunFigure1Ctx(context.Background(), sim.Figure1Config{
		Networks: c.networks, Links: c.links, TransmitSeeds: c.txSeeds, FadingSeeds: c.fadeSeeds,
		Probs: stats.Linspace(0.05, 1.0, c.points), Seed: c.seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	var plainCSV bytes.Buffer
	if err := sim.WriteSeriesCSV(&plainCSV, "prob", plain.Probs, plain.CurveNames(), plain.Curves); err != nil {
		return nil, err
	}
	untraced := time.Since(t0)

	tr := obs.NewTracer(1 << 12)
	t0 = time.Now()
	run, err := runReplica(obs.WithTracer(context.Background(), tr), c)
	if err != nil {
		return nil, err
	}
	traced := time.Since(t0)
	csvs := map[string][]byte{"sim.RunFigure1": plainCSV.Bytes(), "replica": run.csv}

	fan := run
	if nproc := runtime.NumCPU(); workers != nproc {
		wide := c
		wide.workers = nproc
		if fan, err = runReplica(context.Background(), wide); err != nil {
			return nil, err
		}
		csvs["fan-out replica"] = fan.csv
	}

	failed := 0
	for name, csv := range csvs {
		if sum := sha256.Sum256(csv); hex.EncodeToString(sum[:]) != want {
			failed++
			logf("figure1 seed %d: %s CSV differs from the recorded hash", c.seed, name)
		}
	}
	res := newResult(len(csvs), failed)
	run.report(res)
	fan.reportFanout(res)
	res.set("trace.overhead_pct", (traced.Seconds()-untraced.Seconds())/untraced.Seconds()*100)

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", opts.workload, opts.seed))
	layers := obs.TraceBundle{TraceID: "figure1-layers", Instance: "figure1 layers",
		EpochUnixNano: tr.EpochUnixNano(), Spans: run.layerSpans(time.Unix(0, tr.EpochUnixNano()))}
	if err := obs.WriteMergedTraceFile(path, tr, []obs.TraceBundle{layers}); err != nil {
		return nil, err
	}
	logf("%s: wrote trace to %s", opts.workload, path)
	return res, nil
}

// recordHashes prints the figure1.sha256 table by running raysched for
// every recorded seed.
func recordHashes(opts options) error {
	for s := uint64(1); s <= fig1HashSeeds; s++ {
		c := fig1For(s-1, 1)
		inv, err := invoke(bin("raysched"), c)
		if err != nil {
			return err
		}
		fmt.Printf("%d %s\n", c.seed, inv.sha)
	}
	return nil
}
