package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/machine"
)

// hangPlans is the plan list of the hang-proof differential over a
// region of the given size: register-file strikes only (where runaway
// loops come from), the SEU mix, instruction-skip bursts of width 1
// and 3, and multi-bit upsets of width 2 and 5.
func hangPlans(region uint64) []machine.FaultPlan {
	var plans []machine.FaultPlan
	for i, tc := range []struct {
		n   int
		cfg Config
	}{
		{200, Config{Mix: Mix{RegFile: 1}}},
		{100, Config{Mix: DefaultMix}},
		{20, Config{Mix: Mix{Skip: 1}, SkipWidth: 1}},
		{20, Config{Mix: Mix{Skip: 1}, SkipWidth: 3}},
		{20, Config{Mix: Mix{MultiBit: 1}, BitWidth: 2}},
		{20, Config{Mix: Mix{MultiBit: 1}, BitWidth: 5}},
	} {
		plans = append(plans, DrawPlans(int64(31+i), tc.n, tc.cfg, region)...)
	}
	return plans
}

// TestHangProofsMatchReference is the hang-proof differential: every
// compiled replica replayed against the clean run's capture — resumed,
// converging and hang-proving as campaigns run it — ends exactly like
// the reference engine's from-zero run of the same plan, in counters
// (at the hang point for a Hang), error, output, fault attribution and
// rtm statistics. It covers the nine benchmarks at ScaleTiny under
// every scheme that can hang, with a budget of 4× the clean run so
// hangs are common and the reference leg stays cheap, and requires a
// proof wherever hangs occur. (Most UNSAFE yolo and conv2d hangs stay
// unproved: their runaway loops branch on loaded floats, or divide
// the counter.)
func TestHangProofsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("hang-proof differential is slow")
	}
	schemes := []core.Scheme{core.Unsafe, core.RSkip, core.SWIFTR, core.SWIFTRHard}
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
			for _, s := range schemes {
				c := machine.NewCapture(prefixSnapshots)
				clean := p.RunCapture(s, inst, core.RunOpts{}, c)
				if clean.Err != nil {
					t.Fatalf("%s clean run: %v", s, clean.Err)
				}
				budget := 4 * clean.Result.Instrs
				fresh, replayed := p.NewInjector(s), p.NewInjector(s)
				hangs, proved := 0, 0
				plans, step := hangPlans(clean.Result.Region), 1
				if s == core.SWIFTR || s == core.SWIFTRHard {
					// No hangs at this size, and the longest runs: every
					// third plan keeps the race-detector run affordable.
					step = 3
				}
				for i := 0; i < len(plans); i += step {
					plan := plans[i]
					opts := core.RunOpts{Fault: &plan, MaxInstrs: budget}
					got := replayed.Replay(inst, opts, c)
					opts.Reference = true
					want := fresh.Run(inst, opts)
					sameOutcome(t, fmt.Sprintf("%s plan %d %+v", s, i, plan), got, want)
					var he *machine.HangError
					if errors.As(want.Err, &he) {
						hangs++
					}
					if skipped := got.Work.HangSkipped; skipped > 0 {
						proved++
						if !errors.As(want.Err, &he) || skipped >= got.Result.Instrs {
							t.Errorf("%s plan %d: proved a hang skipping %d of %d instructions of a run that ends %v",
								s, i, skipped, got.Result.Instrs, want.Err)
						}
					}
				}
				fresh.Close()
				replayed.Close()
				t.Logf("%s/%s: %d hangs, %d proved", b.Name, s, hangs, proved)
				if hangs > 0 && proved == 0 {
					t.Errorf("%s: none of %d hangs proved", s, hangs)
				}
			}
		})
	}
}

// TestNestedHangProofsMatchReference is the hang-proof differential at
// campaign scale, where runaway loops nest: every Hang plan of an
// N=1000 default-mix UNSAFE campaign on sgemm and conv1d at ScaleFI,
// replayed as the campaign replays it — resumed, converging and
// hang-proving under the campaign's budget — ends exactly like the
// reference engine's from-zero run of the plan. At least one plan per
// kernel must prove its hang with a nested loop taken as one step. Under
// the race detector only the first hangs of each campaign, nested ones
// among them, are compared.
func TestNestedHangProofsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("FI-scale hang-proof differential is slow")
	}
	for _, name := range []string{"sgemm", "conv1d"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Build(b, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			inst := b.Gen(bench.TestSeed(0), bench.ScaleFI)
			ctx := context.Background()
			prof, err := NewProfile(ctx, p, core.Unsafe, inst, nil)
			if err != nil {
				t.Fatal(err)
			}
			e, err := prepare(ctx, prof, Config{N: 1000, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			replayed, fresh := p.NewInjector(core.Unsafe), p.NewInjector(core.Unsafe)
			defer replayed.Close()
			defer fresh.Close()
			hangs, proved, nested := 0, 0, 0
			for i, plan := range e.plans {
				if raceEnabled && hangs >= 2 && nested > 0 {
					break
				}
				plan := plan
				opts := core.RunOpts{Fault: &plan, MaxInstrs: e.budget}
				got := replayed.Replay(inst, opts, prof.Capture)
				var he *machine.HangError
				if !errors.As(got.Err, &he) {
					continue
				}
				hangs++
				if raceEnabled && hangs > 2 && !got.Work.HangNested {
					continue
				}
				opts.Reference = true
				sameOutcome(t, fmt.Sprintf("plan %d %+v", i, plan), got, fresh.Run(inst, opts))
				if got.Work.HangSkipped > 0 {
					proved++
				}
				if got.Work.HangNested {
					nested++
				}
			}
			t.Logf("%s UNSAFE: %d hangs, %d proved, %d with a nested step", name, hangs, proved, nested)
			if nested == 0 {
				t.Errorf("no hang proved with a nested loop as one step")
			}
		})
	}
}

// TestHangProofEngaged pins that campaign replicas prove their runaway
// loops: on an sgemm UNSAFE campaign under the default mix, every Hang
// replica must prove its loop (none may reach the budget unproved), and
// the runaway-loop instructions hang-proved replicas skipped must be at
// least the given share of the instructions all replicas report — a
// silent loss of the proofs fails here, without any timing. Measured:
// 7 of 7 hangs proved, skipping 53.0%; two of them spin in a loop nest
// whose outer iteration holds a whole middle loop, which the dry run
// takes as one step.
func TestHangProofEngaged(t *testing.T) {
	const n = 300
	e := runEngaged(t, "sgemm", core.Unsafe, Config{N: n})
	r, snap, replicaInstrs := e.r, e.m, e.replica
	skipped := snap["fault_hang_instrs_skipped_total"]
	share := skipped / replicaInstrs
	proofs, unproved := snap["fault_hang_proofs_total"], snap["fault_hang_unproved_total"]
	t.Logf("%.0f of %d hangs proved, skipping %.0f of %.0f instructions (%.1f%%)",
		proofs, r.Counts[Hang], skipped, replicaInstrs, 100*share)
	if r.Counts[Hang] == 0 || proofs != float64(r.Counts[Hang]) || unproved != 0 {
		t.Errorf("%.0f of %d hangs proved, %.0f unproved; want every hang proved", proofs, r.Counts[Hang], unproved)
	}
	const want = 0.51
	if replicaInstrs <= 0 || share < want {
		t.Errorf("hang-proved replicas skipped %.1f%% of the replicas' instructions, want >= %.0f%%", 100*share, 100*want)
	}
}

// TestErroringRunsReadNoOutput pins the premise hang proofs rest on:
// a run that ends in error — Hang, Segfault, Trap or Detect — returns
// no output, on either engine, so memory a runaway replica left stale
// is never observed.
func TestErroringRunsReadNoOutput(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range []string{"conv1d", "sgemm"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Build(b, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inst := b.Gen(bench.TestSeed(0), bench.ScaleTiny)
		for _, s := range []core.Scheme{core.Unsafe, core.SWIFT} {
			c := machine.NewCapture(prefixSnapshots)
			clean := p.RunCapture(s, inst, core.RunOpts{}, c)
			if clean.Err != nil {
				t.Fatalf("%s %s clean run: %v", name, s, clean.Err)
			}
			budget := 4 * clean.Result.Instrs
			plans := append(DrawPlans(41, 100, Config{Mix: DefaultMix}, clean.Result.Region),
				DrawPlans(42, 40, Config{Mix: Mix{Opcode: 1}}, clean.Result.Region)...)
			for _, ref := range []bool{false, true} {
				inj := p.NewInjector(s)
				for i, plan := range plans {
					plan := plan
					opts := core.RunOpts{Fault: &plan, MaxInstrs: budget, Reference: ref}
					o := inj.Replay(inst, opts, c)
					if o.Err == nil {
						continue
					}
					cls, _, _ := classify(&o, nil)
					seen[cls.String()] = true
					if o.Output != nil {
						t.Errorf("%s %s/reference=%v plan %d: %v run returned output", name, s, ref, i, o.Err)
					}
				}
				inj.Close()
			}
		}
	}
	for _, c := range []Class{Hang, Segfault, CoreDump, Detected} {
		if !seen[c.String()] {
			t.Errorf("no run ended %s", c)
		}
	}
}
