package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"rskip/internal/bench"
	"rskip/internal/machine"
)

// freshReplica runs one replica on a one-shot Injector: a new machine,
// untimed like every replica, so it differs from a pooled replica only
// in what Reset reuses.
func freshReplica(p *Program, s Scheme, inst bench.Instance, opts RunOpts) Outcome {
	inj := p.NewInjector(s)
	defer inj.Close()
	return inj.Run(inst, opts)
}

// TestInjectorReplicaEquality is the proof promised by the Injector
// doc: running many replicas through one pooled machine (shared
// decode, arena and register slabs reused via Reset) is bit-identical
// to constructing a fresh machine per replica. The plan sweep mixes
// clean runs, error-producing strikes and multi-instruction bursts so
// Reset is exercised after both normal and abnormal termination; a
// further sequence (lazyClearSequence) alternates from-zero, resumed
// and timed runs to pin a resumed replica's single arena clear.
// (That untimed replicas match timed Program.Run on everything but
// Cycles is TestGoldenCountersThreeWay's job in internal/bench.)
func TestInjectorReplicaEquality(t *testing.T) {
	b, err := bench.ByName("conv1d")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(b, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train([]int64{bench.TrainSeed(0)}, bench.ScaleTiny); err != nil {
		t.Fatal(err)
	}
	inst := b.Gen(bench.TestSeed(1), bench.ScaleTiny)
	_, gres, err := p.Golden(inst)
	if err != nil {
		t.Fatal(err)
	}
	budget := 3 * gres.Instrs

	plans := []*machine.FaultPlan{
		nil, // clean replica between injections
		{Kind: machine.FaultResultBit, Target: 5, Bit: 3},
		{Kind: machine.FaultSourceBit, Target: gres.Region / 3, Bit: 31, Pick: 1},
		{Kind: machine.FaultOpcode, Target: gres.Region / 2, Bit: 7},
		{Kind: machine.FaultRegFile, Target: gres.Region / 4, Bit: 12, Pick: 3},
		{Kind: machine.FaultSkip, Target: 9, Width: 3},
		{Kind: machine.FaultMultiBit, Target: gres.Region - 1, Bit: 31, Width: 2},
		nil,
		{Kind: machine.FaultResultBit, Target: 5, Bit: 3}, // repeat: same plan, later replica
	}

	// Both engines: the program's compiled default, and the reference
	// interpreter forced per run.
	for _, ref := range []bool{false, true} {
		for _, s := range []Scheme{Unsafe, RSkip} {
			inj := p.NewInjector(s)
			for i, plan := range plans {
				opts := RunOpts{Fault: plan, MaxInstrs: budget, Reference: ref}
				label := fmt.Sprintf("%s/%s plan %d", s, engine(ref), i)
				sameReplica(t, label, inj.Run(inst, opts), freshReplica(p, s, inst, opts))
			}
			inj.Close()
			lazyClearSequence(t, p, s, inst, budget, ref)
		}
	}
}

func engine(ref bool) string {
	if ref {
		return "reference"
	}
	return "compiled"
}

// sameReplica fails the test unless a pooled replica's outcome equals a
// fresh machine's in error, result, fault attribution and output.
func sameReplica(t *testing.T, label string, pooled, fresh Outcome) {
	t.Helper()
	if fmt.Sprint(fresh.Err) != fmt.Sprint(pooled.Err) {
		t.Fatalf("%s: err %v (fresh) vs %v (pooled)", label, fresh.Err, pooled.Err)
	}
	if fresh.Result != pooled.Result {
		t.Fatalf("%s: result %+v (fresh) vs %+v (pooled)", label, fresh.Result, pooled.Result)
	}
	if fresh.FaultFired != pooled.FaultFired ||
		fresh.FaultTag != pooled.FaultTag ||
		fresh.FaultOp != pooled.FaultOp ||
		fresh.FaultInValueSlice != pooled.FaultInValueSlice {
		t.Fatalf("%s: fault attribution diverged", label)
	}
	if !slices.Equal(fresh.Output, pooled.Output) {
		t.Fatalf("%s: output %#x (fresh) vs %#x (pooled)", label, fresh.Output, pooled.Output)
	}
}

// lazyClearSequence pins the single clear of a resumed replica
// (machine.ResetForResume) on one pooled machine: a from-zero replica
// that segfaults late, after writing most of the output; a replica
// resumed from an early snapshot whose skipped instructions leave an
// output word unwritten, so a word the restore failed to clear shows
// in its output; a from-zero replica; and, after Close hands the arena
// back to the pool, a timed Run. Each equals a fresh machine's run.
func lazyClearSequence(t *testing.T, p *Program, s Scheme, inst bench.Instance, budget uint64, ref bool) {
	t.Helper()
	label := s.String() + "/" + engine(ref)
	c := machine.NewCapture(4)
	clean := p.RunCapture(s, inst, RunOpts{Reference: ref}, c)
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	region := clean.Result.Region
	opts := func(plan *machine.FaultPlan) RunOpts {
		return RunOpts{Fault: plan, MaxInstrs: budget, Reference: ref}
	}
	var segv *machine.FaultPlan
	for tgt := region * 3 / 4; tgt < region && segv == nil; tgt++ {
		plan := &machine.FaultPlan{Kind: machine.FaultResultBit, Target: tgt, Bit: 31}
		var se *machine.SegfaultError
		if errors.As(freshReplica(p, s, inst, opts(plan)).Err, &se) {
			segv = plan
		}
	}
	if segv == nil {
		t.Fatalf("%s: no late strike segfaults", label)
	}
	snap := c.Latest(region/4, budget)
	var skip *machine.FaultPlan
	for tgt := snap.Region(); tgt < snap.Region()+512 && skip == nil; tgt++ {
		plan := &machine.FaultPlan{Kind: machine.FaultSkip, Target: tgt, Width: 1}
		if o := freshReplica(p, s, inst, opts(plan)); o.Err == nil && unwritten(o.Output, clean.Output) {
			skip = plan
		}
	}
	if skip == nil {
		t.Fatalf("%s: no skip after the snapshot leaves an output word unwritten", label)
	}

	inj := p.NewInjector(s)
	sameReplica(t, label+" segfault from zero", inj.Run(inst, opts(segv)), freshReplica(p, s, inst, opts(segv)))
	sameReplica(t, label+" resumed", inj.Resume(inst, opts(skip), snap), freshReplica(p, s, inst, opts(skip)))
	sameReplica(t, label+" from zero", inj.Run(inst, opts(nil)), freshReplica(p, s, inst, opts(nil)))
	inj.Close()
	timed := p.Run(s, inst, RunOpts{Reference: ref})
	sameReplica(t, label+" timed", timed, clean)
}

// TestInjectorDiscard pins the contained-panic protocol: after
// Discard, the next Run builds a fresh machine and still produces
// results identical to a one-shot replica's.
func TestInjectorDiscard(t *testing.T) {
	b, err := bench.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(b, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Train([]int64{bench.TrainSeed(0)}, bench.ScaleTiny); err != nil {
		t.Fatal(err)
	}
	inst := b.Gen(bench.TestSeed(2), bench.ScaleTiny)

	inj := p.NewInjector(Unsafe)
	defer inj.Close()
	first := inj.Run(inst, RunOpts{})
	inj.Discard()
	second := inj.Run(inst, RunOpts{})
	fresh := freshReplica(p, Unsafe, inst, RunOpts{})
	if first.Result != fresh.Result || second.Result != fresh.Result {
		t.Fatalf("post-discard results diverged: %+v / %+v / fresh %+v",
			first.Result, second.Result, fresh.Result)
	}
}

// unwritten reports whether out holds a zero word where the clean
// output does not.
func unwritten(out, clean []uint64) bool {
	for j := range out {
		if out[j] == 0 && clean[j] != 0 {
			return true
		}
	}
	return false
}
