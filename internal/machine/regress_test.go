package machine

import (
	"testing"

	"rskip/internal/ir"
)

// buildZeroRegCallee returns a module whose function 1 has no
// registers at all: a void helper that only returns. Real modules grow
// such functions from outlining (a recompute slice whose body was
// entirely hoisted); the fault injector must survive striking the
// register file of a frame with nothing to strike.
func buildZeroRegCallee(t *testing.T) *ir.Module {
	t.Helper()
	kb := ir.NewBuilder("kern", nil, ir.Int)
	kb.Call(1, ir.Void)
	kb.Ret(kb.ConstInt(0))

	zb := ir.NewBuilder("empty", nil, ir.Void)
	zb.Ret(ir.NoReg)
	if zb.F.NumRegs != 0 {
		t.Fatalf("helper has %d registers, want 0", zb.F.NumRegs)
	}

	mod := &ir.Module{Name: "zeroreg", Funcs: []*ir.Func{kb.F, zb.F}}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
	return mod
}

// A FaultRegFile strike while a zero-register function executes used
// to panic with an integer divide by zero (Pick % NumRegs); it must
// instead count as fired-but-masked — the strike had no register to
// land on.
func TestFaultRegFileZeroRegisterFunction(t *testing.T) {
	for _, be := range allBackends {
		mod := buildZeroRegCallee(t)
		m := New(mod, Config{
			TraceFn:     -1,
			Backend:     be,
			RegionFuncs: map[int]bool{1: true},
			Fault:       &FaultPlan{Kind: FaultRegFile, Target: 0, Bit: 3, Pick: 7},
		})
		res, err := m.Run(0, nil)
		if err != nil {
			t.Fatalf("backend %v: %v", be, err)
		}
		if !m.FaultFired() {
			t.Errorf("backend %v: fault did not fire", be)
		}
		if res.Ret != 0 {
			t.Errorf("backend %v: ret = %d, want 0", be, res.Ret)
		}
	}
}

type chargingHooks struct{ cost Cost }

func (h *chargingHooks) LoopEnter(m *Machine, id int, inv []uint64) error {
	m.Charge(h.cost)
	return nil
}
func (h *chargingHooks) Observe(m *Machine, id int, iter int64, value uint64, addr int64) error {
	return nil
}
func (h *chargingHooks) LoopExit(m *Machine, id int) error { return nil }

// Runtime-hook charges must land in the per-opcode histogram, not just
// Dyn/Runtime/ByTag: the accounting invariant is OpTotal() == Dyn, so
// the opcode breakdown reconciles without out-of-band knowledge. The
// seed accounting dropped charges from the histogram, leaving OpTotal
// short of Dyn by exactly Runtime.
func TestChargeOpcodeAttribution(t *testing.T) {
	b := ir.NewBuilder("kern", nil, ir.Int)
	x := b.ConstInt(2)
	y := b.Binop(ir.OpAdd, ir.Int, x, x)
	b.Raw(ir.Instr{Op: ir.OpRTLoopEnter, Imm: 9})
	b.Ret(y)
	mod := &ir.Module{Name: "charge", Funcs: []*ir.Func{b.F}}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}

	for _, be := range allBackends {
		m := New(mod, Config{
			TraceFn: -1,
			Backend: be,
			Hooks:   &chargingHooks{cost: Cost{IntOps: 4, MemOps: 2, Branches: 1}},
		})
		res, err := m.Run(0, nil)
		if err != nil {
			t.Fatalf("backend %v: %v", be, err)
		}
		c := &res.Counter
		if c.Runtime != 7 {
			t.Fatalf("backend %v: Runtime = %d, want 7", be, c.Runtime)
		}
		if got := c.OpCount(ir.OpRTLoopEnter); got != 7 {
			t.Errorf("backend %v: hook opcode row = %d, want the 7 charged instructions", be, got)
		}
		if c.OpTotal() != c.Dyn {
			t.Errorf("backend %v: OpTotal = %d, Dyn = %d; histogram does not reconcile",
				be, c.OpTotal(), c.Dyn)
		}
	}
}
