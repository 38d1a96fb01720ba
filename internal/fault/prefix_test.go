package fault

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
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
// Recovered column of every record). Work is not compared: it is what
// the shortcuts spared, which differs from the from-zero run's by
// design.
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
					fresh, resumed, replayed := p.NewInjector(s), p.NewInjector(s), p.NewInjector(s)
					engaged, converged, isolated, dead := 0, 0, 0, 0
					for i := range plans {
						plan := plans[i]
						opts := core.RunOpts{Fault: &plan, MaxInstrs: budget, Reference: ref}
						snap := prefix.Latest(plan.Target, budget)
						if snap != nil {
							engaged++
						}
						label := fmt.Sprintf("%s/reference=%v plan %d %+v", s, ref, i, plan)
						want := fresh.Run(inst, opts)
						if want.Work != (machine.Work{}) {
							t.Errorf("%s: a from-zero run reports work %+v", label, want.Work)
						}
						res := resumed.Resume(inst, opts, snap)
						sameOutcome(t, label, res, want)
						got := replayed.Replay(inst, opts, prefix)
						var prefixInstrs uint64
						if snap != nil {
							prefixInstrs = snap.Instrs()
						}
						for _, o := range []core.Outcome{res, got} {
							if o.Work.Resumed != prefixInstrs || o.Work.Executed(o.Result.Instrs) > o.Result.Instrs {
								t.Errorf("%s: work %+v of a run reporting %d instructions, want a prefix of %d",
									label, o.Work, o.Result.Instrs, prefixInstrs)
							}
						}
						if got.Work.Converged > 0 {
							converged++
						}
						if got.Work.Isolated {
							isolated++
						}
						if got.Work.DeadWords > 0 {
							dead++
						}
						sameOutcome(t, label+" converged", got, want)
					}
					fresh.Close()
					resumed.Close()
					replayed.Close()
					if engaged < len(plans)/2 {
						t.Errorf("%s/reference=%v: only %d of %d replicas resumed from a snapshot (%d snapshots of a %d-instruction region)",
							s, ref, engaged, len(plans), prefix.Len(), clean.Result.Region)
					}
					t.Logf("%s/reference=%v: %d of %d replicas converged, %d by copy isolation, %d with dead memory",
						s, ref, converged, len(plans), isolated, dead)
					if converged == 0 {
						t.Errorf("%s/reference=%v: no replica converged", s, ref)
					}
					if isolated == 0 && (s == core.SWIFTR || s == core.RSkip) {
						t.Errorf("%s/reference=%v: no replica converged by copy isolation", s, ref)
					}
					// lud factors its matrix in place: every word a
					// replica corrupts, the clean run reads again.
					if dead == 0 && s == core.Unsafe && name != "lud" {
						t.Errorf("%s/reference=%v: no replica converged with dead memory", s, ref)
					}
				}
			}
		})
	}
}

// engaged is one campaign of an Engaged test: its result, its metrics
// and the instructions its replicas report (machine_instrs_total less
// the clean run's).
type engaged struct {
	r       Result
	m       map[string]float64
	replica float64
}

// runEngaged builds name, runs a campaign of scheme s under cfg (Seed
// 1, and Workers 2 unless set) on its FI-scale instance, and
// requires every replica to complete and the work counters to
// reconcile: the per-class executed instructions plus the resumed,
// converged and hang-skipped ones are the replicas' reported
// instructions.
func runEngaged(t *testing.T, name string, s core.Scheme, cfg Config) engaged {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Build(b, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst := b.Gen(bench.TestSeed(0), bench.ScaleFI)
	clean := p.Run(s, inst, core.RunOpts{})
	o := obs.New()
	p.Observe(o)
	defer p.Observe(nil)
	cfg.Seed = 1
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	r, err := Campaign(obs.Into(context.Background(), o), p, s, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != cfg.N {
		t.Fatalf("campaign completed %d/%d runs", r.N, cfg.N)
	}
	e := engaged{r: r, m: o.Metrics.Snapshot()}
	// machine_instrs_total counts the profile run and every replica.
	e.replica = e.m["machine_instrs_total"] - float64(clean.Result.Instrs)
	var executed []string
	sum := e.m["fault_prefix_instrs_skipped_total"] + e.m["fault_converged_instrs_skipped_total"] + e.m["fault_hang_instrs_skipped_total"]
	for c := Correct; c < NumClasses; c++ {
		v := e.m["fault_executed_instrs_"+c.slug()+"_total"]
		executed = append(executed, fmt.Sprintf("%s %.0f", c, v))
		sum += v
	}
	t.Logf("executed: %s; with the skips %.0f of %.0f replica instructions", strings.Join(executed, ", "), sum, e.replica)
	if sum != e.replica {
		t.Errorf("executed and skipped instructions sum to %.0f, want the replicas' %.0f", sum, e.replica)
	}
	var rejects []string
	unconverged := 0.0
	for r := machine.Reject(0); r < machine.NumRejects; r++ {
		if v := e.m["fault_unconverged_"+r.String()+"_total"]; v > 0 {
			rejects = append(rejects, fmt.Sprintf("%v %.0f", r, v))
			unconverged += v
		}
	}
	t.Logf("unconverged by last reject: %s", strings.Join(rejects, ", "))
	if want := float64(cfg.N) - e.m["fault_converged_total"] - e.m["fault_hang_proofs_total"]; unconverged != want {
		t.Errorf("the reject counters sum to %.0f, want the %.0f replicas that neither converged nor proved a hang", unconverged, want)
	}
	return e
}

// TestPrefixSharingEngaged pins that campaigns actually resume their
// replicas: on a SWIFT-R conv1d campaign the instructions replicas did
// not re-execute must be at least 40% of the instructions they report
// — a silent fallback to from-zero replicas fails here, without any
// timing. The campaign runs on one worker and on four, whose work
// counters must agree: each replica's work is its own, whichever
// pooled machine ran it.
func TestPrefixSharingEngaged(t *testing.T) {
	const n = 200
	e := runEngaged(t, "conv1d", core.SWIFTR, Config{N: n, Workers: 1})
	skipped, replicaInstrs := e.m["fault_prefix_instrs_skipped_total"], e.replica
	t.Logf("replicas skipped %.0f of %.0f instructions (%.1f%%)", skipped, replicaInstrs, 100*skipped/replicaInstrs)
	if replicaInstrs <= 0 || skipped < 0.4*replicaInstrs {
		t.Errorf("replicas skipped %.0f of %.0f instructions (%.1f%%), want >= 40%%",
			skipped, replicaInstrs, 100*skipped/replicaInstrs)
	}
	four := runEngaged(t, "conv1d", core.SWIFTR, Config{N: n, Workers: 4})
	for k, v := range e.m {
		if IsWorkCounter(k) && four.m[k] != v {
			t.Errorf("%s = %.0f on one worker, %.0f on four", k, v, four.m[k])
		}
	}
}

// TestConvergenceEngaged pins that campaign replicas stop once their
// state rejoins the clean run's: the clean-run instructions converged
// replicas took from the clean run's end instead of executing must be
// at least the given share of the instructions all replicas report — a
// silent loss of the early exit fails here, without any timing.
// Measured: 46% for SWIFT-R, stratified or not (38% when a compiled
// replica missed the check points of a reference-engine capture), and
// 19% for UNSAFE, whose hang replicas never converge and run to the
// budget. The UNSAFE leg draws register-file strikes only, where most
// replicas converge through liveness: a dead register struck, or one
// overwritten before the next check point.
func TestConvergenceEngaged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		s     core.Scheme
		mix   Mix
		strat bool
		want  float64
	}{
		{"SWIFT-R", core.SWIFTR, Mix{}, false, 0.40},
		{"UNSAFE", core.Unsafe, Mix{RegFile: 1}, false, 0.15},
		// A stratified campaign captures on the reference engine (its
		// profile run records the region layout); its compiled replicas
		// must still reach every check point.
		{"SWIFT-R-stratified", core.SWIFTR, Mix{}, true, 0.40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200
			e := runEngaged(t, "conv1d", tc.s, Config{N: n, Mix: tc.mix, Stratify: tc.strat})
			skipped, replicaInstrs := e.m["fault_converged_instrs_skipped_total"], e.replica
			share := skipped / replicaInstrs
			t.Logf("%.0f of %d replicas converged, skipping %.0f of %.0f instructions (%.1f%%)",
				e.m["fault_converged_total"], n, skipped, replicaInstrs, 100*share)
			if replicaInstrs <= 0 || share < tc.want {
				t.Errorf("converged replicas skipped %.1f%% of the replicas' instructions, want >= %.0f%%", 100*share, 100*tc.want)
			}
		})
	}
}

// TestDeadMemoryEngaged pins that UNSAFE replicas whose memory differs
// from the clean run's only in words the clean run never reads again
// converge: the share of a conv1d campaign's replicas that converge
// with dead memory must stay above the bound — a silent loss of the
// rule fails here, without any timing. Measured: 10.5% (21 of 200).
func TestDeadMemoryEngaged(t *testing.T) {
	const n = 200
	e := runEngaged(t, "conv1d", core.Unsafe, Config{N: n})
	dead := e.m["fault_converged_dead_memory_total"]
	t.Logf("%.0f of %d replicas converged, %.0f with dead memory (%.1f%%)",
		e.m["fault_converged_total"], n, dead, 100*dead/n)
	if dead < 0.08*n {
		t.Errorf("%.0f of %d replicas converged with dead memory, want >= 8%%", dead, n)
	}
}

// TestCopyIsolationEngaged pins that SWIFT-R replicas whose struck copy
// is outvoted but never re-synced still converge: the share of a conv1d
// campaign's replicas that converge by copy isolation must stay above
// the bound — a silent loss of the rule fails here, without any timing.
// Every conv1d shadow load a struck copy reaches stays mapped once
// shifted, so no replica may fail its last check in a walk, at a load
// or elsewhere. Measured: 14.0% (28 of 200), no walk rejected.
func TestCopyIsolationEngaged(t *testing.T) {
	const n = 200
	e := runEngaged(t, "conv1d", core.SWIFTR, Config{N: n})
	isolated := e.m["fault_converged_isolated_total"]
	t.Logf("%.0f of %d replicas converged, %.0f by copy isolation (%.1f%%)",
		e.m["fault_converged_total"], n, isolated, 100*isolated/n)
	if isolated < 0.06*n {
		t.Errorf("%.0f of %d replicas converged by copy isolation, want >= 6%%", isolated, n)
	}
	for r := machine.RejectWalkLoad; r <= machine.RejectWalkOther; r++ {
		if v := e.m["fault_unconverged_"+r.String()+"_total"]; v != 0 {
			t.Errorf("%.0f replicas failed their last check at %v, want 0", v, r)
		}
	}
}

// TestShadowLoadIsolationEngaged pins that SWIFT-R replicas whose
// struck shadow pointer or index feeds a load address still converge
// by copy isolation, the walk admitting the load once the shift keeps
// every address the clean run loaded there mapped: the share of an
// sgemm campaign's replicas that converge by copy isolation must stay
// above the bound — a silent loss of the load rule fails here, without
// any timing. Measured: 13.5% (27 of 200); 6.5% without the rule.
func TestShadowLoadIsolationEngaged(t *testing.T) {
	const n = 200
	e := runEngaged(t, "sgemm", core.SWIFTR, Config{N: n})
	isolated := e.m["fault_converged_isolated_total"]
	t.Logf("%.0f of %d replicas converged, %.0f by copy isolation (%.1f%%); %.0f rejected at a load",
		e.m["fault_converged_total"], n, isolated, 100*isolated/n, e.m["fault_unconverged_walk_load_total"])
	if isolated < 0.10*n {
		t.Errorf("%.0f of %d replicas converged by copy isolation, want >= 10%%", isolated, n)
	}
}

// A replica resumed from a snapshot skips the instance's Setup, whose
// stores the snapshot's memory would replace: a campaign calls it once
// for the profile run and once per replica whose fault target no
// snapshot precedes.
func TestResumedReplicasSkipSetup(t *testing.T) {
	p, inst := sharedConv1d(t)
	var calls atomic.Int64
	setup := inst.Setup
	inst.Setup = func(mem *machine.Memory) []uint64 {
		calls.Add(1)
		return setup(mem)
	}
	ctx := context.Background()
	prof, err := NewProfile(ctx, p, core.SWIFTR, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := prepare(ctx, prof, Config{N: 120, Seed: 9, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1)
	for _, plan := range e.plans {
		if prof.Capture.Latest(plan.Target, e.budget) == nil {
			want++
		}
	}
	if want >= 1+int64(len(e.plans)) {
		t.Fatalf("no replica of %d resumes from a snapshot", len(e.plans))
	}
	if _, err := newExecutor(e).run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != want {
		t.Errorf("Setup ran %d times, want %d: the profile run and the %d replicas with no snapshot before their target", got, want, want-1)
	}
}
