package bench_test

import (
	"context"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/obs"
)

// BenchmarkObsOverhead measures what the observability layer costs the
// interpreter, in ns per simulated dynamic instruction, across three
// modes:
//
//	disabled — no Obs anywhere (the default for library users and any
//	           CLI run without -trace/-metrics). The acceptance bar is
//	           that this stays within 2% of the pre-obs interpreter:
//	           all per-run instrument feeding sits behind one nil
//	           check, and nothing touches the per-instruction path.
//	metrics  — a live metric registry fed once per run (atomic adds on
//	           pre-resolved handles).
//	tracing  — metrics plus a Tracer recording spans (builds happen
//	           outside the timed loop, so this prices the per-run
//	           span-free steady state).
//
// Compare against BenchmarkStep/<bench>/compiled from the same machine to
// get the disabled-mode overhead figure recorded in EXPERIMENTS.md.
func BenchmarkObsOverhead(b *testing.B) {
	for _, name := range []string{"conv1d", "sgemm"} {
		bm, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		inst := bm.Gen(bench.TestSeed(0), bench.ScaleFI)
		modes := []struct {
			label string
			o     *obs.Obs
		}{
			{"disabled", nil},
			{"metrics", &obs.Obs{Metrics: obs.NewMetrics()}},
			{"tracing", obs.New()},
		}
		for _, mode := range modes {
			ctx := obs.Into(context.Background(), mode.o)
			p, err := core.BuildContext(ctx, bm, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				var instrs uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := p.Run(core.Unsafe, inst, core.RunOpts{})
					if o.Err != nil {
						b.Fatal(o.Err)
					}
					instrs += o.Result.Instrs
				}
				b.StopTimer()
				if instrs > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
				}
			})
		}
	}
}
