package core

import (
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
// Reset is exercised after both normal and abnormal termination.
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
				fresh := freshReplica(p, s, inst, opts)
				pooled := inj.Run(inst, opts)
				ctx := func() string {
					if ref {
						return s.String() + "/reference"
					}
					return s.String() + "/compiled"
				}
				if (fresh.Err == nil) != (pooled.Err == nil) ||
					(fresh.Err != nil && fresh.Err.Error() != pooled.Err.Error()) {
					t.Fatalf("%s plan %d: err %v (fresh) vs %v (pooled)", ctx(), i, fresh.Err, pooled.Err)
				}
				if fresh.Result != pooled.Result {
					t.Fatalf("%s plan %d: result %+v (fresh) vs %+v (pooled)", ctx(), i, fresh.Result, pooled.Result)
				}
				if fresh.FaultFired != pooled.FaultFired ||
					fresh.FaultTag != pooled.FaultTag ||
					fresh.FaultOp != pooled.FaultOp ||
					fresh.FaultInValueSlice != pooled.FaultInValueSlice {
					t.Fatalf("%s plan %d: fault attribution diverged", ctx(), i)
				}
				if len(fresh.Output) != len(pooled.Output) {
					t.Fatalf("%s plan %d: output length %d vs %d", ctx(), i, len(fresh.Output), len(pooled.Output))
				}
				for j := range fresh.Output {
					if fresh.Output[j] != pooled.Output[j] {
						t.Fatalf("%s plan %d: output[%d] = %#x (fresh) vs %#x (pooled)",
							ctx(), i, j, fresh.Output[j], pooled.Output[j])
					}
				}
			}
			inj.Close()
		}
	}
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
