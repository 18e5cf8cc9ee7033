// Command perfbench is rayfade's end-to-end and per-layer benchmark. It
// drives the raysched and rayschedd binaries built from the same checkout
// and prints one JSON result line; NOTES.md describes the workloads and
// metrics. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload figure1-serial --seed 1 --seconds 45 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, every workload all of
// them; NOTES.md gives each one's meaning per workload. BENCHMARK.json
// lists the same names (TestBenchmarkJSONMatches).
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"fading.realizations", "count"},
	{"fading.exp_draws", "count"},
	{"fading.busy_s", "s"},
	{"fading.ns_per_draw", "ns"},
	{"sim.replications", "count"},
	{"sim.rep_busy_s", "s"},
	{"sim.rep_max_over_median", "ratio"},
	{"sim.fanout_wall_s", "s"},
	{"sim.utilization", "ratio"},
	{"sim.fanout_ns_per_draw", "ns"},
	{"sim.render_s", "s"},
	{"network.build_s", "s"},
	{"sinr.calls", "count"},
	{"sinr.busy_s", "s"},
	{"rng.transmit_draws", "count"},
	{"stats.busy_s", "s"},
	{"netio.load_us", "us"},
	{"netio.save_us", "us"},
	{"netio.bytes_per_req", "bytes"},
	{"key.hash_us", "us"},
	{"encode.us", "us"},
	{"compute.estimate_us", "us"},
	{"compute.schedule_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.entries", "count"},
	{"cache.get_us", "us"},
	{"session.hit_ratio", "ratio"},
	{"session.evictions", "count"},
	{"session.get_us", "us"},
	{"flight.shared", "count"},
	{"pool.queue_wait_ms", "ms"},
	{"pool.queue_wait_p99_ms", "ms"},
	{"server.shed", "count"},
	{"server.request_ms.estimate", "ms"},
	{"server.request_ms.topology", "ms"},
	{"server.request_ms.schedule", "ms"},
	{"server.outside_ms", "ms"},
	{"req.count", "count"},
	{"req.p50_ms", "ms"},
	{"req.tail_ms", "ms"},
	{"req.tail_pct", "%"},
	{"req.hit_inline_p50_ms", "ms"},
	{"req.hit_ref_p50_ms", "ms"},
	{"req.miss_p50_ms", "ms"},
	{"req.upload_p50_ms", "ms"},
	{"req.schedule_p50_ms", "ms"},
	{"req.error_rate", "ratio"},
	{"gen.sent", "count"},
	{"gen.completed", "count"},
	{"gen.failed", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.conn_wait_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	units map[string]string
}

func newResult(attempted, failed int) *result {
	units := map[string]string{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			units[m.name] = m.unit
		}
	}
	return &result{Attempted: attempted, Failed: failed, units: units, Metrics: map[string]metric{}}
}

// set records a metric. Names come from the two lists; any other name is
// a bug in the benchmark.
func (r *result) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// finish fills the list's missing metrics with 0 (layers the workload does
// not exercise) and the counts.
func (r *result) finish(list []metricDef) error {
	for _, m := range list {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, 0)
		}
	}
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	r.Correct = r.Failed == 0
	return nil
}

// options are a run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// Where run.sh puts the binaries it builds, and where traced runs write
// their Chrome traces, relative to the repository root.
const (
	binDir   = ".bench_build/bin"
	traceDir = ".bench_build/traces"
)

func bin(name string) string { return filepath.Join(binDir, name) }

// workloads maps each workload to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(options) (*result, error)
}{
	"figure1-serial": {
		func(o options) (*result, error) { return runFigure1(o, 1) },
		func(o options) (*result, error) { return runFigure1Traced(o, 1) },
	},
	"figure1-parallel": {
		func(o options) (*result, error) { return runFigure1(o, runtime.NumCPU()) },
		func(o options) (*result, error) { return runFigure1Traced(o, runtime.NumCPU()) },
	},
	"serve-mix": {runServeMix, runServeMixTraced},
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	if err := run(); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var traceFlag int
	record := flag.Bool("record-hashes", false, "print the figure1.sha256 table and exit")
	flag.StringVar(&o.workload, "workload", "", "workload: figure1-serial, figure1-parallel or serve-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 45, "measurement time")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	o.trace = traceFlag == 1
	if *record {
		return recordHashes(o)
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	env, err := guard(o)
	if err != nil {
		return err
	}
	out, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", out)

	fn, list := w.run, endToEnd
	if o.trace {
		fn, list = w.traced, perLayer
	}
	res, err := fn(o)
	if err != nil {
		return err
	}
	if err := res.finish(list); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// guard records the environment of a run and refuses one whose parallel
// width exceeds the machine: a result measured with more threads than CPUs
// describes contention, not the program. figure1-parallel workers and
// serve-mix generator connections are both nproc.
func guard(o options) (map[string]any, error) {
	nproc := runtime.NumCPU()
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		if n, err := strconv.Atoi(v); err != nil || n > nproc {
			return nil, fmt.Errorf("refusing to record: GOMAXPROCS=%s exceeds nproc=%d", v, nproc)
		}
	}
	workers := 1
	if o.workload == "figure1-parallel" {
		workers = nproc
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"conns":      nproc,
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"source":     sourceID(),
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceID names the code under test: the git commit when the checkout is
// a repository, else a SHA-256 over every Go source and go.mod file.
func sourceID() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return "git:" + strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))
}
