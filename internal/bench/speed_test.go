package bench_test

import (
	"context"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/fault"
)

// buildFor compiles one benchmark for the speed benchmarks, failing
// the benchmark on any build error.
func buildFor(b *testing.B, name string) (*core.Program, bench.Instance) {
	b.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.Build(bm, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return p, bm.Gen(bench.TestSeed(0), bench.ScaleFI)
}

// BenchmarkStep measures interpreter throughput as ns per simulated
// dynamic instruction: one full kernel run per iteration (machine
// construction, setup and teardown included — that is what a campaign
// pays per injection). The compiled/reference pair is the speedup the
// compiled backend buys over the seed per-instruction interpreter;
// untimed is the compiled run as a campaign replica makes it, through
// a one-shot core.Injector with the cycle model off.
//
// Profile the hot path with:
//
//	go test -bench BenchmarkStep/conv1d/compiled -benchtime 3s \
//	    -cpuprofile cpu.out ./internal/bench/ && go tool pprof cpu.out
func BenchmarkStep(b *testing.B) {
	for _, name := range []string{"conv1d", "sgemm", "blackscholes", "lud"} {
		p, inst := buildFor(b, name)
		for _, mode := range []struct {
			label string
			run   func() core.Outcome
		}{
			{"compiled", func() core.Outcome { return p.Run(core.Unsafe, inst, core.RunOpts{}) }},
			{"untimed", func() core.Outcome {
				inj := p.NewInjector(core.Unsafe)
				defer inj.Close()
				return inj.Run(inst, core.RunOpts{})
			}},
			{"reference", func() core.Outcome { return p.Run(core.Unsafe, inst, core.RunOpts{Reference: true}) }},
		} {
			b.Run(name+"/"+mode.label, func(b *testing.B) {
				var instrs uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := mode.run()
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

// BenchmarkCampaign measures end-to-end fault-injection throughput —
// profile run and snapshot capture, plans drawn, replicas reset onto a
// pooled machine and resumed from the latest snapshot, faults
// injected, outcomes classified — in runs per second, per scheme
// (RSkip exercises the run-time manager's state restore). This is the
// number that decides whether a million-run campaign is an overnight
// job or a coffee break.
func BenchmarkCampaign(b *testing.B) {
	p, inst := buildFor(b, "conv1d")
	if err := p.Train([]int64{bench.TrainSeed(0)}, bench.ScaleTiny); err != nil {
		b.Fatal(err)
	}
	for _, s := range []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip} {
		b.Run(s.String(), func(b *testing.B) {
			var runs int
			for i := 0; i < b.N; i++ {
				r, err := fault.Campaign(context.Background(), p, s, inst,
					fault.Config{N: 50, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				runs += r.N
			}
			b.StopTimer()
			if runs > 0 {
				b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
			}
		})
	}
}
