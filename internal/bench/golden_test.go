// Golden-counters differential test: the compiled closure-threaded
// backend and the seed reference interpreter must be
// indistinguishable — on every kernel, under every protection scheme,
// with and without injected faults, the dynamic-instruction counters,
// per-opcode histogram, cycle counts, outputs and fault outcomes are
// bit for bit identical. This is the contract that lets every run
// take the compiled path while the reference interpreter stays the
// spec. The same sweep proves that untimed campaign replicas
// (core.Injector) lose nothing but cycles, whether they run from
// instruction 0, resume from a snapshot of the clean run, or also stop
// early once their state rejoins the clean run's, and that the compiled
// backend's careful per-instruction path matches as well as its fast
// one.
package bench_test

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/core"
	"rskip/internal/machine"
)

// runBoth executes the same instance on the compiled backend and on
// the reference interpreter and reports any observable divergence of
// the compiled run from the timed reference. The compiled backend runs
// it twice: on its fast path, and with tracing on (TraceLimit 1, the
// output discarded), which keeps every instruction on the careful
// per-instruction path (stepCareful). Each backend also runs it
// as a campaign replica (a one-shot core.Injector, which runs
// untimed), from instruction 0, resumed from the latest snapshot of
// prefix that fits the run, and replayed against prefix with the
// convergence early-exit: all must match the reference in everything
// but Cycles, which must be 0, and Work, which only the resumed and
// replayed runs may report (noWork, checkWork). Replays that converge by copy
// isolation are counted into iso.
func runBoth(t *testing.T, p *core.Program, s core.Scheme, gen func() bench.Instance, opts core.RunOpts, prefix *machine.Capture, iso *isolations) {
	t.Helper()
	refOpts := opts
	refOpts.Reference = true
	ref := p.Run(s, gen(), refOpts)
	noWork(t, "reference", ref)
	untimedRef := ref.Result
	untimedRef.Cycles = 0

	compiled := p.Run(s, gen(), opts)
	sameAsRef(t, "compiled", compiled, ref, ref.Result)
	noWork(t, "compiled", compiled)
	careful := opts
	careful.Trace, careful.TraceLimit = io.Discard, 1
	sameAsRef(t, "compiled/careful", p.Run(s, gen(), careful), ref, ref.Result)
	for _, o := range []core.RunOpts{opts, refOpts} {
		label := "compiled/untimed"
		if o.Reference {
			label = "reference/untimed"
		}
		inj := p.NewInjector(s)
		fromZero := inj.Run(gen(), o)
		sameAsRef(t, label, fromZero, ref, untimedRef)
		noWork(t, label, fromZero)
		target, budget := ^uint64(0), o.MaxInstrs
		if o.Fault != nil {
			target = o.Fault.Target
		}
		if budget == 0 {
			budget = machine.DefaultMaxInstrs
		}
		snap := prefix.Latest(target, budget)
		if snap != nil {
			resumed := inj.Resume(gen(), o, snap)
			sameAsRef(t, label+"/resumed", resumed, ref, untimedRef)
			checkWork(t, label+"/resumed", resumed, snap)
		}
		replayed := inj.Replay(gen(), o, prefix)
		sameAsRef(t, label+"/converged", replayed, ref, untimedRef)
		checkWork(t, label+"/converged", replayed, snap)
		if replayed.Work.Isolated {
			iso.add(s.String() + "/" + label)
		}
		inj.Close()
	}
}

// isolations counts replays that converged by copy isolation, per
// scheme and engine, across parallel subtests.
type isolations struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *isolations) add(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n[key]++
}

// noWork requires a run that took no shortcut to report a zero Work.
func noWork(t *testing.T, label string, o core.Outcome) {
	t.Helper()
	if o.Work != (machine.Work{}) {
		t.Errorf("%s reports work %+v without a capture to resume or converge from", label, o.Work)
	}
}

// checkWork holds a replica's Work to the snapshot it resumed from
// (nil: it ran from instruction 0): it reports that snapshot's prefix,
// and executed at most the instructions it reports.
func checkWork(t *testing.T, label string, o core.Outcome, snap *machine.Snapshot) {
	t.Helper()
	var prefix uint64
	if snap != nil {
		prefix = snap.Instrs()
	}
	if o.Work.Resumed != prefix || o.Work.Executed(o.Result.Instrs) > o.Result.Instrs {
		t.Errorf("%s work %+v of a run reporting %d instructions, want a prefix of %d", label, o.Work, o.Result.Instrs, prefix)
	}
}

// sameAsRef reports every way got differs from the reference outcome,
// holding its RunResult to want (the reference's, with Cycles zeroed
// for an untimed run). Work is not compared: it is what the shortcuts
// spared, which differs from the reference's zero by design.
func sameAsRef(t *testing.T, label string, got, ref core.Outcome, want machine.RunResult) {
	t.Helper()
	if got.Result != want {
		t.Errorf("%s RunResult diverged:\n  %s %+v\n  ref %+v", label, label, got.Result, want)
	}
	if fmt.Sprint(got.Err) != fmt.Sprint(ref.Err) {
		t.Errorf("%s error diverged: got %v, ref %v", label, got.Err, ref.Err)
	}
	if got.FaultFired != ref.FaultFired || got.FaultTag != ref.FaultTag || got.FaultOp != ref.FaultOp ||
		got.FaultInValueSlice != ref.FaultInValueSlice {
		t.Errorf("%s fault outcome diverged: got fired=%v tag=%v op=%v slice=%v, ref fired=%v tag=%v op=%v slice=%v",
			label, got.FaultFired, got.FaultTag, got.FaultOp, got.FaultInValueSlice,
			ref.FaultFired, ref.FaultTag, ref.FaultOp, ref.FaultInValueSlice)
	}
	if len(got.Output) != len(ref.Output) {
		t.Fatalf("%s output length diverged: got %d, ref %d", label, len(got.Output), len(ref.Output))
	}
	for i := range got.Output {
		if got.Output[i] != ref.Output[i] {
			t.Fatalf("%s output[%d] diverged: got %#x, ref %#x", label, i, got.Output[i], ref.Output[i])
		}
	}
	// The accounting invariant must hold on real runs, not just the
	// unit test: every charged instruction lands in the histogram.
	if got, want := got.Result.Counter.OpTotal(), got.Result.Counter.Dyn; got != want {
		t.Errorf("%s opcode histogram does not reconcile: OpTotal = %d, Dyn = %d", label, got, want)
	}
}

// TestGoldenCountersThreeWay is the two-way (compiled vs. reference)
// sweep; its name predates the retirement of a third engine and is kept
// so the per-probe subtest names stay stable.
func TestGoldenCountersThreeWay(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	// One probe per fault kind, plus burst/multi-bit width variants:
	// the width machinery (skip continuation across blocks, adjacent-bit
	// flips) must behave identically on all execution paths too.
	probes := []struct {
		kind  machine.FaultKind
		width uint
	}{
		{machine.FaultResultBit, 0}, {machine.FaultSourceBit, 0},
		{machine.FaultOpcode, 0}, {machine.FaultRegFile, 0},
		{machine.FaultSkip, 1}, {machine.FaultSkip, 3},
		{machine.FaultMultiBit, 2}, {machine.FaultMultiBit, 5},
	}
	// The replays of SWIFT-R and RSkip, whose TMR votes outvote struck
	// copies, must converge by copy isolation somewhere on each engine.
	iso := &isolations{n: map[string]int{}}
	t.Cleanup(func() {
		for _, s := range []core.Scheme{core.SWIFTR, core.RSkip} {
			for _, engine := range []string{"compiled", "reference"} {
				key := s.String() + "/" + engine + "/untimed"
				t.Logf("%s: %d replays converged by copy isolation", key, iso.n[key])
				if iso.n[key] == 0 && !t.Failed() {
					t.Errorf("%s: no replay converged by copy isolation", key)
				}
			}
		}
	})
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
			inst := b.Gen(bench.TestSeed(1), bench.ScaleFI)
			for _, s := range []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip, core.SWIFTRHard} {
				// Snapshots taken on the reference interpreter: the
				// compiled replicas resuming from them also prove the
				// snapshot format engine-neutral.
				prefix := machine.NewCapture(32)
				clean := p.RunCapture(s, inst, core.RunOpts{Reference: true}, prefix)
				gen := func() bench.Instance { return b.Gen(bench.TestSeed(1), bench.ScaleFI) }
				t.Run(s.String()+"/clean", func(t *testing.T) {
					runBoth(t, p, s, gen, core.RunOpts{}, prefix, iso)
				})
				region := clean.Result.Region
				if region == 0 {
					continue
				}
				budget := 3 * clean.Result.Instrs
				for i, pr := range probes {
					plan := machine.FaultPlan{
						Kind:   pr.kind,
						Target: region * uint64(i) / uint64(len(probes)),
						Bit:    uint(7 * (i + 1) % 64),
						Pick:   i,
						Width:  pr.width,
					}
					t.Run(fmt.Sprintf("%s/%v.w%d@%d", s, pr.kind, pr.width, plan.Target), func(t *testing.T) {
						runBoth(t, p, s, gen,
							core.RunOpts{Fault: &plan, MaxInstrs: budget}, prefix, iso)
					})
				}
			}
		})
	}
}

// TestRegionTraceBackendsAgree holds the traced, capturing profile run
// that stratified and incremental campaigns make to the reference
// interpreter: on every kernel and scheme, the compiled backend records
// the same region-trace spans, the same RunResult and as many
// snapshots.
func TestRegionTraceBackendsAgree(t *testing.T) {
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
			for _, s := range []core.Scheme{core.Unsafe, core.SWIFT, core.SWIFTR, core.RSkip, core.SWIFTRHard} {
				var refTrace, compTrace machine.RegionTrace
				refCap, compCap := machine.NewCapture(32), machine.NewCapture(32)
				ref := p.RunCapture(s, b.Gen(bench.TestSeed(0), bench.ScaleTiny),
					core.RunOpts{Reference: true, RegionTrace: &refTrace}, refCap)
				comp := p.RunCapture(s, b.Gen(bench.TestSeed(0), bench.ScaleTiny),
					core.RunOpts{RegionTrace: &compTrace}, compCap)
				sameAsRef(t, s.String()+"/traced", comp, ref, ref.Result)
				if !slices.Equal(compTrace.Spans(), refTrace.Spans()) {
					t.Errorf("%s: compiled trace (%d spans, total %d) != reference trace (%d spans, total %d)",
						s, len(compTrace.Spans()), compTrace.Total(), len(refTrace.Spans()), refTrace.Total())
				}
				if compTrace.Total() != ref.Result.Region {
					t.Errorf("%s: trace total %d != region counter %d", s, compTrace.Total(), ref.Result.Region)
				}
				if compCap.Len() != refCap.Len() {
					t.Errorf("%s: compiled capture holds %d snapshots, reference %d", s, compCap.Len(), refCap.Len())
				}
			}
		})
	}
}
