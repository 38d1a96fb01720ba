// Command rskiprun executes one benchmark under a protection scheme
// and reports performance and protection statistics: simulated cycles,
// dynamic instructions, IPC, and — for RSkip — per-loop skip rates and
// run-time management activity.
//
// Usage:
//
//	rskiprun -bench lud [-scheme rskip] [-ar 0.2] [-seed 0] [-scale perf|fi|tiny]
//	         [-backend compiled|reference] [-no-memo] [-no-di] [-cp] [-train 3]
//	         [-trace out.jsonl] [-trace-tree] [-metrics out.json] [-pprof addr]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/ir"
	"rskip/internal/machine"
	"rskip/internal/obs"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark name (see rskiprun -list)")
		list      = flag.Bool("list", false, "list benchmarks")
		scheme    = flag.String("scheme", "rskip", "unsafe, swift, swiftr, rskip, swiftrhard")
		ar        = flag.Float64("ar", 0.2, "acceptable range (0.2 = AR20)")
		seed      = flag.Int("seed", 0, "test input index")
		scaleName = flag.String("scale", "perf", "input scale: perf, fi, tiny")
		backend   = flag.String("backend", "", "execution engine: compiled or reference (bit-identical; default compiled)")
		noMemo    = flag.Bool("no-memo", false, "disable approximate memoization")
		noDI      = flag.Bool("no-di", false, "disable dynamic interpolation")
		forceCP   = flag.Bool("cp", false, "force conventional-protection emulation in PP loops")
		trainN    = flag.Int("train", 3, "number of training inputs")
		saveProf  = flag.String("save-profile", "", "write the trained profile (QoS + memo) to this JSON file")
		loadProf  = flag.String("load-profile", "", "load a trained profile instead of training")
		traceN    = flag.Uint64("trace-instrs", 0, "dump the first N executed instructions to stderr")
		tracePath = flag.String("trace", "", "write spans as JSON lines to this file")
		traceTree = flag.Bool("trace-tree", false, "print the span tree to stderr at exit")
		metrics   = flag.String("metrics", "", "write the metrics registry as JSON to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	cli, err := obs.SetupCLI(obs.CLIConfig{
		TracePath: *tracePath, TraceTree: *traceTree,
		MetricsPath: *metrics, PprofAddr: *pprofAddr,
	})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := cli.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rskiprun:", err)
		}
	}()
	ctx := obs.Into(context.Background(), cli.O())

	if *list {
		for _, b := range bench.All() {
			fmt.Printf("%-13s %s — %s\n", b.Name, b.Domain, b.Description)
		}
		return
	}
	b, err := bench.ByName(*benchName)
	if err != nil {
		fatal(err)
	}
	scale, err := bench.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	s, err := core.ParseScheme(*scheme)
	if err != nil {
		fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.AR = *ar
	cfg.Backend, err = machine.ParseBackend(*backend)
	if err != nil {
		fatal(err)
	}
	cfg.DisableMemo = *noMemo
	cfg.DisableDI = *noDI
	cfg.ForceCP = *forceCP
	p, err := core.BuildContext(ctx, b, cfg)
	if err != nil {
		fatal(err)
	}
	if s == core.RSkip {
		if *loadProf != "" {
			if err := p.LoadProfile(*loadProf); err != nil {
				fatal(err)
			}
		} else {
			if err := p.Train(bench.TrainSeeds(*trainN), scale); err != nil {
				fatal(err)
			}
		}
		if *saveProf != "" {
			if err := p.SaveProfile(*saveProf); err != nil {
				fatal(err)
			}
		}
	}

	inst := b.Gen(bench.TestSeed(*seed), scale)
	golden := p.Run(core.Unsafe, inst, core.RunOpts{})
	if golden.Err != nil {
		fatal(golden.Err)
	}
	o := p.Run(s, inst, core.RunOpts{Trace: os.Stderr, TraceLimit: *traceN})
	if o.Err != nil {
		fatal(fmt.Errorf("%s run failed: %w", s, o.Err))
	}

	same := len(o.Output) == len(golden.Output)
	if same {
		for i := range o.Output {
			if o.Output[i] != golden.Output[i] {
				same = false
				break
			}
		}
	}
	fmt.Printf("benchmark       %s (seed %d, %s scale)\n", b.Name, *seed, *scaleName)
	fmt.Printf("scheme          %s\n", s)
	fmt.Printf("instructions    %d (%.2fx unprotected)\n",
		o.Result.Instrs, float64(o.Result.Instrs)/float64(golden.Result.Instrs))
	fmt.Printf("cycles          %d (%.2fx unprotected)\n",
		o.Result.Cycles, float64(o.Result.Cycles)/float64(golden.Result.Cycles))
	fmt.Printf("IPC             %.2f (unprotected %.2f)\n", o.Result.IPC(), golden.Result.IPC())
	fmt.Printf("output matches  %v\n", same)
	fmt.Printf("instruction mix (top 8 opcodes):\n")
	type oc struct {
		op ir.Op
		n  uint64
	}
	var mix []oc
	for op, n := range o.Result.Counter.OpsMap() {
		mix = append(mix, oc{op, n})
	}
	// Tie-break equal counts by opcode so the report is stable across
	// runs (OpsMap iteration order is random).
	sort.Slice(mix, func(i, j int) bool {
		if mix[i].n != mix[j].n {
			return mix[i].n > mix[j].n
		}
		return mix[i].op < mix[j].op
	})
	if len(mix) > 8 {
		mix = mix[:8]
	}
	for _, m := range mix {
		fmt.Printf("  %-8s %10d (%.1f%%)\n", m.op, m.n,
			100*float64(m.n)/float64(o.Result.Instrs))
	}
	if s == core.RSkip {
		fmt.Printf("skip rate       %.2f%% (DI %.2f%%)\n", 100*o.SkipRate(), 100*o.DISkipRate())
		ids := make([]int, 0, len(o.Stats))
		for id := range o.Stats {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			st := o.Stats[id]
			li := p.Module(core.RSkip).LoopByID(id)
			fmt.Printf("  loop %d (%s): observed=%d skipDI=%d skipAM=%d recomputed=%d mispredicted=%d phases=%d adjusts=%d\n",
				id, li.Name, st.Observed, st.SkippedDI, st.SkippedAM,
				st.Recomputed, st.Mispredicted, st.Phases, st.Adjusts)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rskiprun:", err)
	os.Exit(1)
}
