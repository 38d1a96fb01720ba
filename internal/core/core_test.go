package core

import (
	"testing"

	"rskip/internal/bench"
)

// TestPipelineSmoke builds every benchmark at tiny scale, trains,
// runs all schemes on a fresh test input, and demands bitwise-equal
// outputs with a detected candidate loop and a positive skip rate.
func TestPipelineSmoke(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, err := Build(b, DefaultConfig())
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if len(p.Candidates) == 0 {
				t.Fatalf("no candidate loops detected")
			}
			if len(p.Module(RSkip).Loops) == 0 {
				t.Fatalf("no PP loops in transformed module")
			}
			if err := p.Train([]int64{bench.TrainSeed(0), bench.TrainSeed(1)}, bench.ScaleTiny); err != nil {
				t.Fatalf("Train: %v", err)
			}
			inst := b.Gen(bench.TestSeed(0), bench.ScaleTiny)
			golden, gres, err := p.Golden(inst)
			if err != nil {
				t.Fatalf("golden run: %v", err)
			}
			if gres.Instrs == 0 || gres.Region == 0 {
				t.Fatalf("golden run counted no instructions (instrs=%d region=%d)",
					gres.Instrs, gres.Region)
			}
			for _, s := range []Scheme{SWIFT, SWIFTR, RSkip} {
				o := p.Run(s, b.Gen(bench.TestSeed(0), bench.ScaleTiny), RunOpts{})
				if o.Err != nil {
					t.Fatalf("%s run failed: %v", s, o.Err)
				}
				if len(o.Output) != len(golden) {
					t.Fatalf("%s output length %d != %d", s, len(o.Output), len(golden))
				}
				for i := range golden {
					if o.Output[i] != golden[i] {
						t.Fatalf("%s output[%d] = %#x, want %#x", s, i, o.Output[i], golden[i])
					}
				}
				if o.Result.Instrs <= gres.Instrs {
					t.Errorf("%s executed %d instrs, expected more than unprotected %d",
						s, o.Result.Instrs, gres.Instrs)
				}
				if s == RSkip {
					total := 0
					for _, st := range o.Stats {
						total += st.Observed
					}
					if total == 0 {
						t.Fatalf("RSkip observed no elements")
					}
					t.Logf("%s: skip=%.2f%% instrs=%.2fx cycles=%.2fx",
						b.Name, 100*o.SkipRate(),
						float64(o.Result.Instrs)/float64(gres.Instrs),
						float64(o.Result.Cycles)/float64(gres.Cycles))
				}
			}
		})
	}
}

// ParseScheme accepts every spelling the CLIs and the daemon take.
func TestParseScheme(t *testing.T) {
	for name, want := range map[string]Scheme{
		"unsafe": Unsafe, "swift": SWIFT, "swiftr": SWIFTR, "swift-r": SWIFTR,
		"rskip": RSkip, "swiftrhard": SWIFTRHard, "swift-r-hard": SWIFTRHard,
		" RSkip ": RSkip, "SWIFT-R": SWIFTR,
	} {
		if got, err := ParseScheme(name); err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "tmr", "swift_r"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) accepted", bad)
		}
	}
}
