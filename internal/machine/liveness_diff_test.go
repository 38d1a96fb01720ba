package machine_test

import (
	"reflect"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/machine"
)

// TestDeadRegistersNeverMatter is the differential proof of the
// liveness the convergence check compares registers by: at every
// snapshot point of a clean run, flipping a bit in every register the
// solution calls dead — in every frame — and resuming from there must end
// exactly like the clean run, in counters, output and rtm statistics.
// It covers the nine benchmarks under all five schemes on both
// engines.
func TestDeadRegistersNeverMatter(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p, err := core.Build(b, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Train([]int64{bench.TrainSeed(0)}, bench.ScaleTiny); err != nil {
				t.Fatal(err)
			}
			inst := b.Gen(bench.TestSeed(0), bench.ScaleTiny)
			for _, s := range []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip, core.SWIFTRHard} {
				c := machine.NewCapture(4)
				clean := p.RunCapture(s, inst, core.RunOpts{}, c)
				if clean.Err != nil {
					t.Fatalf("%s clean run: %v", s, clean.Err)
				}
				want := clean.Result
				want.Cycles = 0
				snaps := machine.Snapshots(c)
				if len(snaps) == 0 {
					t.Fatalf("%s: clean run captured no snapshots", s)
				}
				flipped := 0
				for _, ref := range []bool{false, true} {
					inj := p.NewInjector(s)
					for k, snap := range snaps {
						dead, n := machine.FlipDead(p.Code(s), snap, uint(7*k+3))
						flipped += n
						got := inj.Resume(inst, core.RunOpts{Reference: ref}, dead)
						if got.Err != nil || got.Result != want {
							t.Errorf("%s/reference=%v at region %d: %d dead registers flipped: %+v, %v; want %+v",
								s, ref, snap.Region(), n, got.Result, got.Err, want)
						}
						if !reflect.DeepEqual(got.Output, clean.Output) {
							t.Errorf("%s/reference=%v at region %d: output diverged", s, ref, snap.Region())
						}
						if !reflect.DeepEqual(got.Stats, clean.Stats) {
							t.Errorf("%s/reference=%v at region %d: rtm statistics diverged", s, ref, snap.Region())
						}
					}
					inj.Close()
				}
				if flipped == 0 {
					t.Errorf("%s: no register was dead at any of %d snapshot points", s, len(snaps))
				}
			}
		})
	}
}
