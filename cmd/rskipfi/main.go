// Command rskipfi runs a statistical fault-injection campaign (§7.2)
// for one benchmark across protection schemes and prints the outcome
// distribution with 95% Wilson confidence intervals.
//
// The campaign engine is resilient: Ctrl-C cancels cleanly (with
// -checkpoint, progress is saved and a re-run resumes where it left
// off to bit-identical counts), every run is bounded by a
// deterministic instruction budget, and -target-ci stops a scheme
// early once the protection-rate interval is tight enough.
//
// Usage:
//
//	rskipfi -bench sgemm [-n 1000] [-ar 0.2] [-schemes unsafe,swiftr,rskip] [-seed N]
//	        [-fault-kind seu|skip|multibit] [-skip-width N] [-bit-width N] [-exhaustive]
//	        [-stratify] [-incremental] [-result-cache-dir dir]
//	        [-backend compiled|reference]
//	        [-json] [-checkpoint path] [-target-ci 2.0] [-batch N] [-workers N] [-fabric N]
//	        [-trace out.jsonl] [-trace-tree] [-metrics out.json] [-pprof addr]
//
// -fault-kind selects the threat model: the default "seu" is the
// paper's single-event-upset mix; "skip" injects instruction-skip
// bursts of -skip-width consecutive instructions (Moro et al.);
// "multibit" flips -bit-width adjacent bits. -exhaustive replaces
// statistical sampling with one run per fault site (every in-region
// instruction for skip, every instruction × starting bit for
// multibit) — meant for the micro-kernels (musum, mudot, mumax) and
// the swiftrhard scheme, whose single-skip immunity it proves.
//
// -stratify allocates the n replicas across instruction-class strata
// (ALU, float, memory, ...) in proportion to the profiled stream, so
// rare classes are sampled deliberately and the protection CI uses
// the weighted stratified estimator. -incremental switches to the
// compositional analyzer: one campaign of n replicas per
// candidate-loop region, composed into program-level figures; with
// -result-cache-dir, per-region results persist content-addressed, so
// after a source edit only the edited region's campaign re-runs.
//
// Each campaign's row (table and -json alike) carries a metrics
// summary — the pipeline counters that moved during that campaign —
// so injection counts, contained panics and interpreter work are
// auditable per scheme without a separate metrics run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"rskip/internal/bench"
	"rskip/internal/campaign"
	"rskip/internal/core"
	"rskip/internal/fabric"
	"rskip/internal/fault"
	"rskip/internal/obs"
	"rskip/internal/result"
	"rskip/internal/stats"
)

// schemeCheckpoint derives a per-scheme checkpoint path from the base
// flag so one -checkpoint value covers a multi-scheme sweep.
func schemeCheckpoint(base string, s core.Scheme) string {
	if base == "" {
		return ""
	}
	slug := strings.ToLower(s.String())
	return strings.TrimSuffix(base, ".json") + "." + slug + ".json"
}

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark name")
		n         = flag.Int("n", campaign.DefaultN, "number of injected faults per scheme (cap when -target-ci is set)")
		ar        = flag.Float64("ar", 0.2, "acceptable range for the rskip scheme")
		schemes   = flag.String("schemes", "unsafe,swiftr,rskip", "comma-separated schemes")
		seed      = flag.Int64("seed", campaign.DefaultSeed, "fault sampling seed")
		faultKind = flag.String("fault-kind", "seu", "threat model: seu (paper's single-event-upset mix), skip (instruction-skip bursts) or multibit (adjacent-bit upsets)")
		backend   = flag.String("backend", "compiled", "execution engine: compiled or reference (bit-identical; compiled is the default)")
		skipWidth = flag.Int("skip-width", 1, "consecutive instructions suppressed per skip fault")
		bitWidth  = flag.Int("bit-width", 2, "adjacent bits flipped per multibit fault")
		exhaust   = flag.Bool("exhaustive", false, "enumerate every fault site instead of sampling n faults (skip/multibit only; -n is ignored)")
		stratify  = flag.Bool("stratify", false, "allocate the n replicas across instruction-class strata in proportion to the profiled stream (tighter CIs at equal n)")
		increment = flag.Bool("incremental", false, "compositional per-region analysis: one campaign of n replicas per candidate-loop region, composed to program-level figures (pairs with -result-cache-dir)")
		cacheDir  = flag.String("result-cache-dir", "", "content-addressed per-region result cache for -incremental: unedited regions are served from cache across runs")
		trainN    = flag.Int("train", 3, "number of training inputs")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON instead of the table")
		ckBase    = flag.String("checkpoint", "", "checkpoint file base path (per-scheme files derive from it); an interrupted sweep resumes from it")
		targetCI  = flag.Float64("target-ci", 0, "adaptive sampling: stop once the 95% CI on the protection rate is this many percentage points wide or less (0 = off)")
		batch     = flag.Int("batch", 0, "runs per adaptive/checkpoint batch (0 = default)")
		workers   = flag.Int("workers", 0, "campaign parallelism (0 = GOMAXPROCS)")
		fabricN   = flag.Int("fabric", 0, "lease each campaign's shards to this many simulated nodes, each with its own executor, merged by one ledger — a differential check of the distributed path (0 = one executor)")
		tracePath = flag.String("trace", "", "write spans as JSON lines to this file")
		traceTree = flag.Bool("trace-tree", false, "print the span tree to stderr at exit")
		metrics   = flag.String("metrics", "", "write the metrics registry as JSON to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *cacheDir != "" && !*increment {
		fatal(errors.New("-result-cache-dir only applies to -incremental analyses"))
	}
	// One spec per scheme; everything else the flags say is shared.
	spec := campaign.Spec{
		Bench: *benchName, N: *n, Seed: *seed, Train: *trainN,
		Config:  &campaign.BuildConfig{AR: ar, Backend: *backend},
		Workers: *workers, Batch: *batch, TargetCI: *targetCI,
		FaultModel: *faultKind, SkipWidth: *skipWidth, BitWidth: *bitWidth,
		Exhaustive: *exhaust, Stratify: *stratify, Incremental: *increment,
	}
	if *exhaust {
		spec.N = 0 // the enumerator derives the count from the region
	}
	if err := spec.CheckConflicts(*fabricN > 0, *ckBase != ""); err != nil {
		fatal(err)
	}

	cli, err := obs.SetupCLI(obs.CLIConfig{
		TracePath: *tracePath, TraceTree: *traceTree,
		MetricsPath: *metrics, PprofAddr: *pprofAddr,
	})
	if err != nil {
		fatal(err)
	}
	defer closeObs(cli)
	// rskipfi always collects metrics — the per-campaign summary rides
	// on snapshot deltas even when no -metrics file was requested.
	o := cli.O()
	if o == nil {
		o = &obs.Obs{Metrics: obs.NewMetrics()}
	} else if o.Metrics == nil {
		o.Metrics = obs.NewMetrics()
	}

	// Ctrl-C / SIGTERM cancel the sweep; with -checkpoint the progress
	// survives for a resuming re-run.
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()
	ctx = obs.Into(ctx, o)

	b, err := bench.ByName(*benchName)
	if err != nil {
		fatal(err)
	}

	// The default-SEU title is the original sampled-campaign wording;
	// the other threat models describe themselves.
	faultDesc := "single bit flips inside the detected loops"
	switch *faultKind {
	case "skip":
		faultDesc = "instruction skips inside the detected loops"
		if *skipWidth > 1 {
			faultDesc = fmt.Sprintf("%d-instruction skip bursts inside the detected loops", *skipWidth)
		}
	case "multibit":
		faultDesc = fmt.Sprintf("%d adjacent bit flips inside the detected loops", *bitWidth)
	}
	title := fmt.Sprintf("fault injection — %s, up to %d faults per scheme (%s; 95%% Wilson CIs)", b.Name, *n, faultDesc)
	if *exhaust {
		title = fmt.Sprintf("fault injection — %s, exhaustive enumeration per scheme (%s; 95%% Wilson CIs)", b.Name, faultDesc)
	}
	headers := []string{"scheme", "runs", "Correct", "SDC", "Segfault", "Core dump", "Hang", "Detected", "protection [95% CI]", "false neg", "recovered"}
	var resultCache *result.Cache
	if *increment {
		title = fmt.Sprintf("fault injection — %s, incremental per-region analysis, %d replicas per region (%s; weighted 95%% CIs)", b.Name, *n, faultDesc)
		headers = []string{"scheme", "regions", "cached", "runs", "Correct", "SDC", "Segfault", "Core dump", "Hang", "Detected", "protection [95% CI]"}
		if *cacheDir != "" {
			if resultCache, err = result.Open(*cacheDir); err != nil {
				fatal(err)
			}
		}
	}
	type schemeSel struct {
		spec  campaign.Spec
		label string
	}
	var sels []schemeSel
	for _, name := range strings.Split(*schemes, ",") {
		s, err := core.ParseScheme(name)
		if err != nil {
			fatal(err)
		}
		label := s.String()
		if s == core.RSkip {
			label = fmt.Sprintf("RSkip AR%.0f", *ar*100)
		}
		sel := schemeSel{spec: spec, label: label}
		sel.spec.Scheme = name
		sels = append(sels, sel)
	}

	t := stats.NewTable(title, headers...)
	var jsonRows []*campaign.Result
	var summaries []string
	for _, sel := range sels {
		c, err := sel.spec.Setup(ctx)
		if err != nil {
			fatal(err)
		}
		s, label := c.Scheme, sel.label
		if *increment {
			before := o.M().Snapshot()
			rep, err := c.Analyze(ctx, resultCache)
			if err != nil {
				fatal(err)
			}
			delta := obs.Delta(before, o.M().Snapshot())
			if *jsonOut {
				row := sel.spec.IncrementalResult(label, rep)
				row.Metrics = delta
				jsonRows = append(jsonRows, row)
				continue
			}
			r := rep.Composed
			summaries = append(summaries, metricsSummary(label, delta))
			t.Row(label,
				fmt.Sprintf("%d", len(rep.Regions)),
				fmt.Sprintf("%d", rep.CacheHits),
				fmt.Sprintf("%d", r.N),
				fmt.Sprintf("%.1f%%", r.Rate(fault.Correct)),
				fmt.Sprintf("%.1f%%", r.Rate(fault.SDC)),
				fmt.Sprintf("%.1f%%", r.Rate(fault.Segfault)),
				fmt.Sprintf("%.1f%%", r.Rate(fault.CoreDump)),
				fmt.Sprintf("%.1f%%", r.Rate(fault.Hang)),
				fmt.Sprintf("%.1f%%", r.Rate(fault.Detected)),
				fmt.Sprintf("%.1f%% [%.1f, %.1f]", rep.Protection, rep.ProtectionCI[0], rep.ProtectionCI[1]))
			continue
		}
		fcfg := c.Fault
		fcfg.CheckpointPath = schemeCheckpoint(*ckBase, s)
		before := o.M().Snapshot()
		var r fault.Result
		if *fabricN > 0 {
			r, err = runFabric(ctx, c.Program, s, c.Inst, fcfg, *fabricN)
		} else {
			r, err = fault.Campaign(ctx, c.Program, s, c.Inst, fcfg)
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "rskipfi: interrupted after %d/%d %s runs", r.N, r.Requested, s)
			if fcfg.CheckpointPath != "" {
				fmt.Fprintf(os.Stderr, "; progress saved to %s — re-run the same command to resume", fcfg.CheckpointPath)
			}
			fmt.Fprintln(os.Stderr)
			closeObs(cli)
			os.Exit(130)
		}
		if err != nil {
			fatal(err)
		}
		delta := obs.Delta(before, o.M().Snapshot())
		if *jsonOut {
			row := sel.spec.Result(label, r)
			row.Metrics = delta
			jsonRows = append(jsonRows, row)
			continue
		}
		summaries = append(summaries, metricsSummary(label, delta))
		runs := fmt.Sprintf("%d", r.N)
		if r.EarlyStopped {
			runs += "*"
		}
		plo, phi := r.ProtectionCI()
		t.Row(label, runs,
			fmt.Sprintf("%.1f%%", r.Rate(fault.Correct)),
			fmt.Sprintf("%.1f%%", r.Rate(fault.SDC)),
			fmt.Sprintf("%.1f%%", r.Rate(fault.Segfault)),
			fmt.Sprintf("%.1f%%", r.Rate(fault.CoreDump)),
			fmt.Sprintf("%.1f%%", r.Rate(fault.Hang)),
			fmt.Sprintf("%.1f%%", r.Rate(fault.Detected)),
			fmt.Sprintf("%.1f%% [%.1f, %.1f]", r.ProtectionRate(), plo, phi),
			fmt.Sprintf("%.1f%%", r.FalseNegRate()),
			fmt.Sprintf("%d", r.Recovered))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonRows); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(t.String())
	if *targetCI > 0 {
		fmt.Println("* adaptive sampling stopped early at the target CI width")
	}
	fmt.Println("per-campaign metrics:")
	for _, s := range summaries {
		fmt.Println(s)
	}
}

// runFabric runs one campaign with `nodes` simulated nodes. Each node
// owns its own executor — its own profile run and record array — and
// drives one lease loop on one coordinator, so the shards of the
// campaign interleave across nodes exactly as they would across
// machines, and the first node's ledger merges them. The result must
// be bit-identical to fault.Campaign with the same config; this is the
// CLI-reachable differential check of the distributed path.
func runFabric(ctx context.Context, p *core.Program, s core.Scheme, inst bench.Instance, fcfg fault.Config, nodes int) (fault.Result, error) {
	xs := make([]fabric.ShardRunner, nodes)
	var first *fault.Executor
	for i := range xs {
		x, err := fault.NewExecutor(ctx, p, s, inst, fcfg)
		if err != nil {
			return fault.Result{}, err
		}
		if first == nil {
			first = x
		}
		xs[i] = x
	}
	l, err := fault.NewLedger(first, 0)
	if err != nil {
		return fault.Result{}, err
	}
	return l.Drive(ctx, l.Coordinator(fabric.Options{}), xs...)
}

// metricsSummary renders the counters a campaign moved as one compact
// line per scheme, most-relevant keys first.
func metricsSummary(label string, delta map[string]float64) string {
	lead := []string{
		"fault_injections_total", "fault_fired_total",
		"fault_injections_skipped_total", "fault_panics_contained_total",
		"machine_runs_total", "machine_instrs_total",
	}
	inLead := map[string]bool{}
	var parts []string
	add := func(k string, v float64) {
		parts = append(parts, fmt.Sprintf("%s=%g", strings.TrimSuffix(k, "_total"), v))
	}
	for _, k := range lead {
		inLead[k] = true
		if v, ok := delta[k]; ok {
			add(k, v)
		}
	}
	var rest []string
	for k := range delta {
		// Memory-pool reuse depends on how many workers the executor
		// starts, which follows scheduling (each new worker builds one
		// machine, taking a released machine's memory when the pool
		// holds one), so those counters are scheduling noise here — the
		// summary must stay a pure function of the flags. Work counters
		// follow how much work a campaign does, never what it computes,
		// which is what the summary reports. Both remain in -metrics.
		if strings.HasPrefix(k, "machine_arena_pool_") || fault.IsWorkCounter(k) {
			continue
		}
		if !inLead[k] && !strings.Contains(k, "_bucket") {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		add(k, delta[k])
	}
	return fmt.Sprintf("  %-14s %s", label, strings.Join(parts, " "))
}

func closeObs(cli *obs.CLI) {
	if err := cli.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "rskipfi:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rskipfi:", err)
	os.Exit(1)
}
