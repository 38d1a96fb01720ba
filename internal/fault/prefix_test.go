package fault

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/machine"
	"rskip/internal/obs"
	"rskip/internal/rtm"
)

// prefixPlans is a campaign-sized plan list over a region of the
// given size: the paper's SEU mix plus instruction-skip bursts of
// width 1 and 3 and multi-bit upsets of width 2 and 5.
func prefixPlans(region uint64) []machine.FaultPlan {
	plans := DrawPlans(11, 200, Config{Mix: DefaultMix}, region)
	for i, cfg := range []Config{
		{Mix: Mix{Skip: 1}, SkipWidth: 1},
		{Mix: Mix{Skip: 1}, SkipWidth: 3},
		{Mix: Mix{MultiBit: 1}, BitWidth: 2},
		{Mix: Mix{MultiBit: 1}, BitWidth: 5},
	} {
		plans = append(plans, DrawPlans(int64(12+i), 25, cfg, region)...)
	}
	return plans
}

// sameOutcome reports every way a resumed replica differs from the
// from-zero one: the full RunResult, the error, the output, the fault
// attribution and the run-time management statistics (which feed the
// Recovered column of every record).
func sameOutcome(t *testing.T, label string, got, want core.Outcome) {
	t.Helper()
	if got.Result != want.Result {
		t.Errorf("%s RunResult diverged:\n  resumed %+v\n  fresh   %+v", label, got.Result, want.Result)
	}
	if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
		t.Errorf("%s error diverged: resumed %v, fresh %v", label, got.Err, want.Err)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Errorf("%s output diverged", label)
	}
	if got.FaultFired != want.FaultFired || got.FaultTag != want.FaultTag || got.FaultOp != want.FaultOp ||
		got.FaultInValueSlice != want.FaultInValueSlice {
		t.Errorf("%s fault attribution diverged: resumed fired=%v tag=%v op=%v slice=%v, fresh fired=%v tag=%v op=%v slice=%v",
			label, got.FaultFired, got.FaultTag, got.FaultOp, got.FaultInValueSlice,
			want.FaultFired, want.FaultTag, want.FaultOp, want.FaultInValueSlice)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s rtm stats diverged:\n  resumed %s\n  fresh   %s", label, fmtStats(got.Stats), fmtStats(want.Stats))
	}
}

func fmtStats(m map[int]*rtm.LoopStats) string {
	s := ""
	for id, st := range m {
		s += fmt.Sprintf("%d:%+v ", id, *st)
	}
	return s
}

// TestResumedReplicasBitIdentical is the prefix-sharing property: a
// replica resumed from the latest clean-run snapshot before its fault
// target produces exactly the from-zero replica's outcome, for every
// plan of a campaign-sized list, under every scheme, on both engines.
// The snapshots are taken on the compiled engine (the campaign's
// path), so the reference leg also proves the format engine-neutral.
func TestResumedReplicasBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("resumed-vs-fresh sweep is slow")
	}
	schemes := []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip, core.SWIFTRHard}
	for _, name := range []string{"conv1d", "sgemm", "lud"} {
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
			if err := p.Train([]int64{bench.TrainSeed(0)}, bench.ScaleTiny); err != nil {
				t.Fatal(err)
			}
			inst := b.Gen(bench.TestSeed(0), bench.ScaleTiny)
			for _, s := range schemes {
				prefix := machine.NewCapture(prefixSnapshots)
				clean := p.RunCapture(s, inst, core.RunOpts{}, prefix)
				if clean.Err != nil {
					t.Fatalf("%s clean run: %v", s, clean.Err)
				}
				// A tight budget keeps hang replicas cheap; they must
				// still hang at the identical instruction.
				budget := 3 * clean.Result.Instrs
				plans := prefixPlans(clean.Result.Region)
				for _, ref := range []bool{false, true} {
					fresh, resumed := p.NewInjector(s), p.NewInjector(s)
					engaged := 0
					for i := range plans {
						plan := plans[i]
						opts := core.RunOpts{Fault: &plan, MaxInstrs: budget, Reference: ref}
						snap := prefix.Latest(plan.Target, budget)
						if snap != nil {
							engaged++
						}
						label := fmt.Sprintf("%s/reference=%v plan %d %+v", s, ref, i, plan)
						sameOutcome(t, label, resumed.Resume(inst, opts, snap), fresh.Run(inst, opts))
					}
					fresh.Close()
					resumed.Close()
					if engaged < len(plans)/2 {
						t.Errorf("%s/reference=%v: only %d of %d replicas resumed from a snapshot (%d snapshots of a %d-instruction region)",
							s, ref, engaged, len(plans), prefix.Len(), clean.Result.Region)
					}
				}
			}
		})
	}
}

// TestPrefixSharingEngaged pins that campaigns actually resume their
// replicas: on a SWIFT-R conv1d campaign the instructions replicas did
// not re-execute must be at least 40% of the instructions they report
// — a silent fallback to from-zero replicas fails here, without any
// timing.
func TestPrefixSharingEngaged(t *testing.T) {
	b, err := bench.ByName("conv1d")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := b.Gen(bench.TestSeed(0), bench.ScaleFI)
	clean := p.Run(core.SWIFTR, inst, core.RunOpts{})
	o := obs.New()
	p.Observe(o)
	defer p.Observe(nil)
	const n = 200
	r, err := Campaign(obs.Into(context.Background(), o), p, core.SWIFTR, inst, Config{N: n, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != n {
		t.Fatalf("campaign completed %d/%d runs", r.N, n)
	}
	snap := o.Metrics.Snapshot()
	// machine_instrs_total counts the profile run and every replica.
	replicaInstrs := snap["machine_instrs_total"] - float64(clean.Result.Instrs)
	skipped := snap["fault_prefix_instrs_skipped_total"]
	t.Logf("replicas skipped %.0f of %.0f instructions (%.1f%%)", skipped, replicaInstrs, 100*skipped/replicaInstrs)
	if replicaInstrs <= 0 || skipped < 0.4*replicaInstrs {
		t.Errorf("replicas skipped %.0f of %.0f instructions (%.1f%%), want >= 40%%",
			skipped, replicaInstrs, 100*skipped/replicaInstrs)
	}
}
