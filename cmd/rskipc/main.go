// Command rskipc is the RSkip compiler front door: it compiles MiniC
// source and reports what the protection pipeline does with it —
// detected candidate loops, the transformed IR of any scheme, and the
// static cost analysis.
//
// Usage:
//
//	rskipc [-scheme unsafe|swift|swiftr|rskip|swiftrhard] [-candidates] [-print] file.mc
//	rskipc -bench conv1d -candidates        # use a built-in benchmark
//	rskipc -passes "optimize,swift,cfc" file.mc   # explicit pass pipeline
//	rskipc [-print-after] [-time-passes] ...
//	rskipc [-trace out.jsonl] [-trace-tree] [-metrics out.json] [-pprof addr] ...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"rskip/internal/analysis"
	"rskip/internal/bench"
	"rskip/internal/lang"
	"rskip/internal/lower"
	"rskip/internal/obs"
	"rskip/internal/pass"
	"rskip/internal/transform"
)

func main() {
	var (
		scheme     = flag.String("scheme", "rskip", "protection scheme: unsafe, swift, swiftr, rskip, swiftrhard")
		passSpec   = flag.String("passes", "", "run this comma-separated pass pipeline instead of a -scheme (e.g. \"optimize,swift,cfc\")")
		candidates = flag.Bool("candidates", false, "report detected candidate loops")
		print      = flag.Bool("print", false, "print the (transformed) IR")
		printAfter = flag.Bool("print-after", false, "print the module after every pass (stderr)")
		timePasses = flag.Bool("time-passes", false, "report per-pass wall time at exit (stderr)")
		benchName  = flag.String("bench", "", "compile a built-in benchmark instead of a file")
		threshold  = flag.Int("threshold", 0, "candidate cost threshold (0 = default)")
		optimize   = flag.Bool("O", false, "run scalar optimizations before protection")
		emit       = flag.String("emit", "", "write the (transformed) module to this .rir file")
		cfc        = flag.Bool("cfc", false, "add control-flow checking (block signatures) after protection")
		format     = flag.Bool("fmt", false, "pretty-print the parsed MiniC source and exit")
		tracePath  = flag.String("trace", "", "write spans as JSON lines to this file")
		traceTree  = flag.Bool("trace-tree", false, "print the span tree to stderr at exit")
		metrics    = flag.String("metrics", "", "write the metrics registry as JSON to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
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
			fmt.Fprintln(os.Stderr, "rskipc:", err)
		}
	}()
	ctx := obs.Into(context.Background(), cli.O())

	var name, src string
	switch {
	case *benchName != "":
		b, err := bench.ByName(*benchName)
		if err != nil {
			fatal(err)
		}
		name, src = b.Name, b.Source
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		name, src = flag.Arg(0), string(data)
	default:
		fmt.Fprintln(os.Stderr, "rskipc: need a source file or -bench name")
		flag.Usage()
		os.Exit(2)
	}

	if *format {
		prog, err := lang.Parse(src)
		if err != nil {
			fatal(err)
		}
		fmt.Print(lang.Format(prog))
		return
	}
	_, spc := obs.Start(ctx, "rskipc/compile")
	spc.SetAttr("source", name)
	mod, err := lower.Compile(name, src)
	spc.End()
	if err != nil {
		fatal(err)
	}
	opt := analysis.Options{CostThreshold: *threshold}

	pm := &pass.Manager{VerifyEach: true}
	if *printAfter {
		pm.PrintAfter = os.Stderr
	}
	if *timePasses {
		pm.TimePasses = os.Stderr
	}
	runPipeline := func(spanName string, pipeline []pass.Pass) {
		pm.Passes = pipeline
		pctx, sp := obs.Start(ctx, spanName)
		err := pm.Run(pctx, mod, opt)
		sp.End()
		if err != nil {
			fatal(err)
		}
	}

	// Resolve the protection pipeline: either the explicit -passes
	// text, or the -scheme's registered pipeline with -cfc appended.
	// -O runs as its own pipeline first, so the -candidates report
	// below sees the optimized (but not yet protected) module, as it
	// always has.
	var pipeline []pass.Pass
	if *passSpec != "" {
		pipeline, err = pass.Parse(*passSpec)
		if err != nil {
			fatal(err)
		}
	} else {
		var extra []string
		if *cfc {
			if *scheme == "unsafe" {
				fatal(fmt.Errorf("-cfc requires a protection scheme"))
			}
			extra = append(extra, "cfc")
		}
		pipeline, err = pass.SchemePipeline(*scheme, extra...)
		if err != nil {
			fatal(err)
		}
		if *optimize {
			o, _ := pass.Lookup("optimize")
			runPipeline("rskipc/optimize", []pass.Pass{o})
		}
	}

	if *candidates {
		cands := transform.Candidates(mod, opt)
		if len(cands) == 0 {
			fmt.Println("no candidate loops detected")
		}
		for _, c := range cands {
			pattern := "inner loop"
			if c.HasCall {
				pattern = "user call"
			}
			vt := "int"
			if c.ValueFloat {
				vt = "float"
			}
			fmt.Printf("candidate %s: header=b%d latch=b%d store=b%d/%d value=%s via %s cost=%d iv=%v step=%d invariants=%d\n",
				c.Name(mod), c.Header, c.Latch, c.StoreBlock, c.StoreIdx,
				vt, pattern, c.Cost, c.IV, c.Step, len(c.Invariants))
		}
	}

	runPipeline("rskipc/transform", pipeline)

	if *emit != "" {
		f, err := os.Create(*emit)
		if err != nil {
			fatal(err)
		}
		if err := mod.MarshalText(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *print {
		fmt.Print(mod.String())
	} else if !*candidates {
		funcs := 0
		instrs := 0
		for _, f := range mod.Funcs {
			funcs++
			for bi := range f.Blocks {
				instrs += len(f.Blocks[bi].Instrs)
			}
		}
		what := "scheme=" + *scheme
		if *passSpec != "" {
			what = "passes=" + *passSpec
		}
		fmt.Printf("%s: %s functions=%d static instructions=%d pp-loops=%d\n",
			name, what, funcs, instrs, len(mod.Loops))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rskipc:", err)
	os.Exit(1)
}
