// Command benchmark measures the RSkip reproduction end to end and
// layer by layer. It drives the program only through the surfaces its
// users drive — fault.Campaign (what rskipfi calls), rskipd's HTTP API
// with an in-process fabric worker joined over loopback, and
// result.Analyze — and checks every outcome against an independent
// path. See README.md for the workloads, metrics and flags.
//
//	bash benchmark/run.sh                          # all workloads, untraced
//	bash benchmark/run.sh -trace                   # plus a traced run of each
//	bash benchmark/run.sh --workload sweep --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh -compare base.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSeed is rskipfi's default campaign seed.
const defaultSeed = 20200222

// metricDef names one reported metric. BENCHMARK.json gives each its
// direction and, end to end, its bound.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every workload reports untraced. Their
// per-workload meaning is in README.md.
var endToEnd = []metricDef{
	{"runs_per_s", "runs/s"},
	{"request_p50_ms", "ms"},
	{"setup_s", "s"},
}

// workloads in run order.
var workloads = []struct {
	name string
	fn   func(r *run) error
}{
	{"sweep", runSweep},
	{"daemon", runDaemon},
	{"fabric", runFabric},
	{"incremental", runIncremental},
}

// options are the command-line settings of one invocation.
type options struct {
	workload       string
	seed           int64
	seconds        float64
	trace          bool
	size           string
	out            string
	compare        bool
	updateExpected bool
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: each workload in its own child process)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed every generated input and fault plan derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload")
	fs.BoolVar(&o.trace, "trace", false, "record spans and report the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.size, "size", "full", "input size: full or tiny (N and iterations cut about 20x)")
	fs.StringVar(&o.out, "out", ".bench_out", "directory for results.json, spans and layers.txt")
	fs.BoolVar(&o.compare, "compare", false, "compare two results.json files: -compare base.json new.json")
	fs.BoolVar(&o.updateExpected, "update-expected", false, "rewrite testdata/expected.json from a sweep at the default seed")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two results.json files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if _, ok := sizes[o.size]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown -size %q (want full or tiny)\n", o.size)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.updateExpected {
		if err := updateExpected(o); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if o.workload == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return runAll(o, exe, stdout, stderr)
	}
	rep, err := runWorkload(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	printReport(stdout, rep)
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// normalizeArgs rewrites "--trace 0" and "--trace 1" into the
// "-trace=0" form the flag package needs for a boolean flag, so both
// "-trace" alone and an explicit value work.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch v := args[i+1]; v {
			case "0", "1", "true", "false":
				out = append(out, a+"="+v)
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// report is the outcome of one workload run.
type report struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Size      string          `json:"size"`
	Traced    bool            `json:"traced"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	FailShare float64         `json:"fail_share"`
	Failures  []string        `json:"failures,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	Layers    map[string]stat `json:"layers,omitempty"`
	// Requests summarizes request latency (ms) by request kind.
	Requests map[string]stat `json:"requests,omitempty"`
	// HostSpeed is the calibration factor timings were scaled by:
	// above 1 the host ran faster than the reference host.
	HostSpeed stat `json:"host_speed"`
}

// run is the state of one workload run: its settings, the tracer (nil
// when untraced), operation counts and metric samples.
type run struct {
	opts   options
	size   size
	tr     *tracer
	ctx    context.Context
	tmp    string
	stderr io.Writer

	mu        sync.Mutex
	attempted int
	failures  []string
	setups    []float64            // setup_s repetitions
	latency   map[string][]float64 // request latency (ms) by request kind
	rates     map[string][]float64 // replicas per second by request kind
	layers    map[string]stat
	speeds    []float64 // host speed factors of the calibrated repetitions
}

func newRun(o options, tmp string, stderr io.Writer) *run {
	r := &run{opts: o, size: sizes[o.size], ctx: context.Background(), tmp: tmp, stderr: stderr,
		latency: map[string][]float64{}, rates: map[string][]float64{}, layers: map[string]stat{}}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

// check counts one operation or outcome check, failing it unless ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Fprintln(r.stderr, "benchmark: FAIL:", msg)
	}
	return ok
}

// checkErr counts one operation that failed if err is non-nil.
func (r *run) checkErr(err error, what string) bool {
	if err != nil {
		return r.check(false, "%s: %v", what, err)
	}
	return r.check(true, "")
}

// request records one request's latency under its kind.
func (r *run) request(kind string, d time.Duration) {
	r.mu.Lock()
	r.latency[kind] = append(r.latency[kind], float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

// rate records that a request of kind ran replicas fault-injected runs
// in d.
func (r *run) rate(kind string, replicas int, d time.Duration) {
	r.mu.Lock()
	r.rates[kind] = append(r.rates[kind], float64(replicas)/d.Seconds())
	r.mu.Unlock()
}

// layer records one per-layer metric.
func (r *run) layer(name, unit string, vs ...float64) {
	r.mu.Lock()
	r.layers[name] = summarize(vs, unit)
	r.mu.Unlock()
}

// span opens a traced span under ctx (a no-op when untraced).
func (r *run) span(ctx context.Context, name string, attrs ...any) (context.Context, func()) {
	return r.tr.start(ctx, name, attrs...)
}

// runWorkload runs o.workload in this process.
func runWorkload(o options, stderr io.Writer) (*report, error) {
	var fn func(*run) error
	for _, w := range workloads {
		if w.name == o.workload {
			fn = w.fn
		}
	}
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	tmpRoot := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, o.workload+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := newRun(o, tmp, stderr)
	ctx, end := r.span(r.ctx, "bench."+o.workload)
	r.ctx = ctx
	if err := fn(r); err != nil {
		r.check(false, "%s: %v", o.workload, err)
	}
	end()
	peak := peakRSSMB()
	// The layer table covers the workload's spans; the probes' spans
	// only go to the spans file.
	workloadSpans := r.tr.snapshot()
	if o.trace {
		pctx, pend := r.span(context.Background(), "bench.probes")
		if err := probeLayers(pctx, r); err != nil {
			r.check(false, "layer probes: %v", err)
		}
		pend()
	}

	rep := &report{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Size: o.size, Traced: o.trace,
		Attempted: r.attempted, Failed: len(r.failures), Failures: r.failures,
		Metrics: map[string]stat{}, HostSpeed: summarize(r.speeds, "ratio"),
	}
	if rep.Attempted > 0 {
		rep.FailShare = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Metrics["setup_s"] = summarize(r.setups, "s")
	rep.Metrics["peak_rss_mb"] = summarize([]float64{peak}, "MB")
	rep.Requests = map[string]stat{}
	for kind, vs := range r.latency {
		rep.Requests[kind] = summarize(vs, "ms")
	}
	if len(r.latency) > 0 {
		rep.Metrics["request_p50_ms"] = mixStat(r.latency, "ms", geomean)
	}
	if len(r.rates) > 0 {
		rep.Metrics["runs_per_s"] = mixStat(r.rates, "runs/s", harmean)
	}
	if o.trace {
		rep.Layers = r.layers
		if err := writeSpans(filepath.Join(o.out, o.workload+".spans.jsonl"), r.tr.snapshot()); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(o.out, "layers.txt"))
		if err != nil {
			return nil, err
		}
		writeLayers(f, o.workload, workloadSpans, rep.Layers)
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	name := o.workload + ".json"
	if o.trace {
		name = o.workload + ".traced.json"
	}
	if err := writeJSON(filepath.Join(o.out, name), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// mixStat folds the samples of several request kinds into one figure:
// a fold over kinds of each kind's median, so every kind weighs the same
// however many requests of it fit in the run or in which order they
// came. Latencies fold by geometric mean; replica rates by harmonic
// mean, which is the rate of a mix running every kind once. Q1 and Q3
// are the same fold of each kind's 25th and 75th percentiles.
func mixStat(byKind map[string][]float64, unit string, fold func([]float64) float64) stat {
	var meds, q1s, q3s []float64
	n := 0
	for _, vs := range byKind {
		meds, q1s, q3s = append(meds, median(vs)), append(q1s, quantile(vs, 0.25)), append(q3s, quantile(vs, 0.75))
		n += len(vs)
	}
	return stat{Median: fold(meds), Q1: fold(q1s), Q3: fold(q3s), N: n, Unit: unit}
}

// resultLine renders the one-line JSON result: the end-to-end metrics
// untraced, the per-layer ones traced.
func resultLine(rep *report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if rep.Traced {
		for _, d := range layerDefs() {
			st, ok := rep.Layers[d.Name]
			if !ok {
				return "", fmt.Errorf("per-layer metric %s was not measured", d.Name)
			}
			metrics[d.Name] = value{st.Median, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			st, ok := rep.Metrics[d.Name]
			if !ok {
				return "", fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			metrics[d.Name] = value{st.Median, d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, max(rep.Attempted, 1), rep.Failed, metrics})
	return string(line), err
}

// printReport prints a human-readable table of one workload run.
func printReport(w io.Writer, rep *report) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %g s, size %s): %d ops, %d failed, fail_share %g\n",
		rep.Workload, mode, rep.Seed, rep.Seconds, rep.Size, rep.Attempted, rep.Failed, rep.FailShare)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := rep.Metrics[n]
		fmt.Fprintf(w, "  %-18s %12.4f %-7s (q1 %.4f, q3 %.4f, n %d)\n", n, st.Median, st.Unit, st.Q1, st.Q3, st.N)
	}
	if rep.Traced {
		fmt.Fprintf(w, "  %d per-layer metrics (see layers.txt)\n", len(rep.Layers))
	}
}

// results is results.json: every workload run of one invocation.
type results struct {
	Host          host               `json:"host"`
	Runs          []*report          `json:"runs"`
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
}

// runAll runs every workload in its own child process of exe — so peak
// RSS and the build cache are per workload — then, with -trace, a
// traced child of each, and writes results.json. A child that exits
// non-zero or writes no report fails the invocation.
func runAll(o options, exe string, stdout, stderr io.Writer) int {
	res := results{Host: hostInfo()}
	var layers strings.Builder
	layersPath := filepath.Join(o.out, "layers.txt")
	var failed []string
	for _, w := range workloads {
		modes := []bool{false}
		if o.trace {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			label, name := w.name, w.name+".json"
			if traced {
				label, name = w.name+" (traced)", w.name+".traced.json"
			}
			path := filepath.Join(o.out, name)
			// A report or layer table an earlier invocation left in -out
			// must not stand in for this child's.
			for _, p := range []string{path, layersPath} {
				if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
			}
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-size", o.size, "-out", o.out,
				fmt.Sprintf("-trace=%v", traced)}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			runErr := cmd.Run()
			var exitErr *exec.ExitError
			if runErr != nil && !errors.As(runErr, &exitErr) {
				fmt.Fprintln(stderr, "benchmark:", runErr)
				return 1
			}
			if runErr != nil {
				failed = append(failed, fmt.Sprintf("%s: %v", label, runErr))
			}
			rep := &report{}
			if err := readJSON(path, rep); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s produced no report: %v\n", label, err)
				if runErr == nil {
					failed = append(failed, label+": no report")
				}
				continue
			}
			res.Runs = append(res.Runs, rep)
			if traced {
				data, err := os.ReadFile(layersPath)
				if err == nil {
					layers.Write(data)
				}
			}
		}
	}
	if o.trace {
		res.TraceOverhead = traceOverhead(res.Runs)
		names := make([]string, 0, len(res.TraceOverhead))
		for n := range res.TraceOverhead {
			names = append(names, n)
		}
		sort.Strings(names)
		layers.WriteString("== trace overhead (untraced minus traced runs_per_s, as a share of untraced)\n")
		for _, n := range names {
			fmt.Fprintf(&layers, "trace_overhead.%-28s %10.4f\n", n, res.TraceOverhead[n])
		}
		if err := os.WriteFile(layersPath, []byte(layers.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	path := filepath.Join(o.out, "results.json")
	if err := writeJSON(path, &res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if len(failed) > 0 {
		fmt.Fprintf(stdout, "FAILED: %s\n", strings.Join(failed, "; "))
		return 1
	}
	return 0
}

// traceOverhead pairs each workload's untraced and traced runs.
func traceOverhead(runs []*report) map[string]float64 {
	base := map[string]float64{}
	for _, r := range runs {
		if !r.Traced {
			base[r.Workload] = r.Metrics["runs_per_s"].Median
		}
	}
	out := map[string]float64{}
	for _, r := range runs {
		if b := base[r.Workload]; r.Traced && b > 0 {
			out[r.Workload] = (b - r.Metrics["runs_per_s"].Median) / b
		}
	}
	return out
}

// host describes the machine a results file was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	OS         string `json:"os"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
