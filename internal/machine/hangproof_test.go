package machine

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"rskip/internal/ir"
)

// hangKernel is a hand-built kernel for the hang-proof edge cases: the
// module, the kernel's function index, and how to set up its memory
// and arguments.
type hangKernel struct {
	mod   *ir.Module
	fi    int
	setup func(m *Machine) []uint64
}

// hangRun is how one replica ended.
type hangRun struct {
	err    error
	proved bool
}

// runHang runs k's clean capture on the compiled engine, then the
// replica under plan and budget twice: compiled, resumed and checking
// for convergence as campaigns run it, and on the reference engine
// from instruction 0. It fails the test unless both end alike —
// counters, error and fault attribution — and, after a proof, unless
// the convergence check was disarmed.
func runHang(t *testing.T, label string, k hangKernel, plan FaultPlan, budget uint64) hangRun {
	t.Helper()
	cfg := Config{RegionFuncs: map[int]bool{k.fi: true}, TraceFn: -1}
	c := NewCapture(4)
	ccfg := cfg
	ccfg.Capture = c
	cm := New(k.mod, ccfg)
	if _, err := cm.Run(k.fi, k.setup(cm)); err != nil {
		t.Fatalf("%s: clean run: %v", label, err)
	}
	cm.Release()

	rcfg := cfg
	rcfg.Untimed, rcfg.MaxInstrs, rcfg.Fault = true, budget, &plan
	rcfg.Backend = BackendReference
	ref := New(k.mod, rcfg)
	defer ref.Release()
	want, werr := ref.Run(k.fi, k.setup(ref))

	rcfg.Backend, rcfg.Converge = BackendCompiled, c
	m := New(k.mod, rcfg)
	defer m.Release()
	args := k.setup(m)
	var got RunResult
	var gerr error
	if snap := c.Latest(plan.Target, budget); snap != nil {
		got, gerr = m.Resume(snap)
	} else {
		got, gerr = m.Run(k.fi, args)
	}
	if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Errorf("%s: compiled (%+v, %v), reference (%+v, %v)", label, got, gerr, want, werr)
	}
	gt, gop, gfn := m.FaultSite()
	wt, wop, wfn := ref.FaultSite()
	if m.FaultFired() != ref.FaultFired() || gt != wt || gop != wop || gfn != wfn {
		t.Errorf("%s: fault attribution diverged", label)
	}
	skipped, proved := m.HangProved()
	if proved {
		var he *HangError
		if !errors.As(werr, &he) || skipped == 0 || skipped >= got.Instrs {
			t.Errorf("%s: proof skipped %d of %d instructions of a run that ends %v", label, skipped, got.Instrs, werr)
		}
		if m.conv.c != nil || m.conv.at != noCheck {
			t.Errorf("%s: convergence check still armed after the proof", label)
		}
	}
	return hangRun{err: gerr, proved: proved}
}

// countingLoop builds
//
//	kernel(r0 start, r1 bound, r2 stride, r3 base, r4 inner) {
//	  i = start
//	  while (op(i, bound)) {
//	    [nested: for (k = 0; k < inner; k++) store base+k, k]
//	    store base+i, i   (sub instead of add when neg)
//	    i += stride
//	  }
//	  return i
//	}
//
// the fuzz target's and several edge cases' kernel.
func countingLoop(op ir.Op, nested, neg bool) *ir.Module {
	ps := []ir.Param{{Name: "start", Type: ir.Int}, {Name: "bound", Type: ir.Int},
		{Name: "stride", Type: ir.Int}, {Name: "base", Type: ir.Ptr}, {Name: "inner", Type: ir.Int}}
	b := ir.NewBuilder("kernel", ps, ir.Int)
	head, body, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("exit")
	i := b.F.NewReg(ir.Int)
	b.Mov(i, 0)
	b.Br(head)
	b.SetBlock(head)
	b.CondBr(b.Binop(op, ir.Int, i, 1), body, exit)
	b.SetBlock(body)
	if nested {
		ih, ib, after := b.NewBlock("ihead"), b.NewBlock("ibody"), b.NewBlock("after")
		k := b.F.NewReg(ir.Int)
		b.Mov(k, b.ConstInt(0))
		b.Br(ih)
		b.SetBlock(ih)
		b.CondBr(b.Binop(ir.OpLt, ir.Int, k, 4), ib, after)
		b.SetBlock(ib)
		b.Store(b.Binop(ir.OpAdd, ir.Ptr, 3, k), k)
		b.Mov(k, b.Binop(ir.OpAdd, ir.Int, k, b.ConstInt(1)))
		b.Br(ih)
		b.SetBlock(after)
	}
	addr := ir.OpAdd
	if neg {
		addr = ir.OpSub
	}
	b.Store(b.Binop(addr, ir.Ptr, 3, i), i)
	b.Mov(i, b.Binop(ir.OpAdd, ir.Int, i, 2))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(i)
	return &ir.Module{Name: "hang", Funcs: []*ir.Func{b.F}}
}

// countingKernel runs countingLoop with fixed arguments.
func countingKernel(op ir.Op, nested, neg bool, start, bound, stride, base, inner int64) hangKernel {
	return hangKernel{mod: countingLoop(op, nested, neg), setup: func(*Machine) []uint64 {
		return []uint64{uint64(start), uint64(bound), uint64(stride), uint64(base), uint64(inner)}
	}}
}

// strike flips bit of register r before the kernel's first instruction.
func strike(r int, bit uint) FaultPlan {
	return FaultPlan{Kind: FaultRegFile, Target: 0, Pick: r, Bit: bit}
}

// TestHangProofEdgeCases pins the hang proof's obligations against the
// reference engine on hand-built loops whose fault makes them run long:
// each must end exactly as the from-zero reference run ends, whether
// the loop hangs, exits, wraps or faults, and the proof must engage
// exactly where the whole remaining budget is provably spent in the
// loop. Each case runs under a range of budgets so that the budget
// runs out at every instruction of an iteration.
func TestHangProofEdgeCases(t *testing.T) {
	const maxI = math.MaxInt64
	for _, tc := range []struct {
		name  string
		k     hangKernel
		plan  FaultPlan
		prove bool // a proof must engage
		class string
	}{
		// i < bound with a strike on bound: a plain runaway.
		{"runaway", countingKernel(ir.OpLt, false, false, 0, 10, 1, 1000, 0), strike(1, 20), true, "hang"},
		// A strike on the inner loop's trip count leaves it finite; the
		// outer loop, whose iterations unroll it, is the runaway.
		{"nested-invariant-inner", countingKernel(ir.OpLt, true, false, 0, 5, 1, 1000, 4), strike(1, 20), true, "hang"},
		// i != bound with a stride that skips the struck bound.
		{"ne-stride-skips", countingKernel(ir.OpNe, false, false, 0, 20, 2, 1000, 0), strike(1, 0), true, "hang"},
		// i != bound reached, later than the clean run but within the
		// budget: the loop exits.
		{"ne-reached", countingKernel(ir.OpNe, false, false, 0, 20, 2, 1000, 0), strike(1, 6), false, "ok"},
		// The counter wraps past MaxInt64 before the budget ends and
		// i > start-1 turns false: the loop exits.
		{"counter-wraps", wrapKernel(maxI - 100), strike(1, 20), false, "ok"},
		// Stores walk past MappedLimit, and below zero, before the
		// budget ends: a segfault at the same instruction.
		{"address-past-limit", countingKernel(ir.OpLt, false, false, 0, 10, 1, MappedLimit-60, 0), strike(1, 20), false, "segfault"},
		{"address-negative", countingKernel(ir.OpLt, false, true, 0, 10, 1, 60, 0), strike(1, 20), false, "segfault"},
		// A strike on base moves every store out of range at once.
		{"address-out-now", countingKernel(ir.OpLt, false, false, 0, 10, 1, 1000, 0), strike(3, 31), false, "segfault"},
		// The exit branches on a loaded value: no proof, however long.
		{"load-branch", loadBranchKernel(35), strike(1, 10), false, "ok"},
		{"load-branch-hang", loadBranchKernel(1 << 20), strike(1, 10), false, "hang"},
		// Calls and runtime hooks in the loop reject it.
		{"call", callKernel(false), strike(1, 20), false, "hang"},
		{"hook", callKernel(true), strike(1, 20), false, "hang"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.k.fi = 0
			clean := cleanInstrs(t, tc.k)
			proved := 0
			// The iteration is at most ~20 instructions: 24 budgets cross
			// it at every instruction.
			for extra := uint64(0); extra < 24; extra++ {
				budget := 300*clean/10 + extra
				label := fmt.Sprintf("budget %d", budget)
				r := runHang(t, label, tc.k, tc.plan, budget)
				var he *HangError
				var se *SegfaultError
				switch {
				case errors.As(r.err, &he):
					if tc.class != "hang" {
						t.Errorf("%s: hung, want %s", label, tc.class)
					}
				case errors.As(r.err, &se):
					if tc.class != "segfault" {
						t.Errorf("%s: %v, want %s", label, r.err, tc.class)
					}
				case r.err == nil:
					if tc.class != "ok" {
						t.Errorf("%s: finished, want %s", label, tc.class)
					}
				default:
					t.Errorf("%s: %v, want %s", label, r.err, tc.class)
				}
				if r.proved {
					proved++
				}
			}
			if tc.prove && proved == 0 {
				t.Errorf("no proof engaged")
			}
			if !tc.prove && proved != 0 {
				t.Errorf("%d proofs engaged where none may", proved)
			}
		})
	}
}

// cleanInstrs returns the instructions of k's fault-free run.
func cleanInstrs(t *testing.T, k hangKernel) uint64 {
	t.Helper()
	m := New(k.mod, Config{TraceFn: -1})
	defer m.Release()
	res, err := m.Run(k.fi, k.setup(m))
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	return res.Instrs
}

// wrapKernel builds
//
//	kernel(r0 start, r1 hi) { i = start; while (i > start-1 && i != hi) i++; return i }
//
// with hi = start+10: a strike on hi leaves only the wrap of i to end
// the loop.
func wrapKernel(start int64) hangKernel {
	b := ir.NewBuilder("kernel", []ir.Param{{Name: "start", Type: ir.Int}, {Name: "hi", Type: ir.Int}}, ir.Int)
	head, chk, body, exit := b.NewBlock("head"), b.NewBlock("chk"), b.NewBlock("body"), b.NewBlock("exit")
	i := b.F.NewReg(ir.Int)
	b.Mov(i, 0)
	lo := b.Binop(ir.OpSub, ir.Int, 0, b.ConstInt(1))
	b.Br(head)
	b.SetBlock(head)
	b.CondBr(b.Binop(ir.OpGt, ir.Int, i, lo), chk, exit)
	b.SetBlock(chk)
	b.CondBr(b.Binop(ir.OpNe, ir.Int, i, 1), body, exit)
	b.SetBlock(body)
	b.Mov(i, b.Binop(ir.OpAdd, ir.Int, i, b.ConstInt(1)))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(i)
	mod := &ir.Module{Name: "wrap", Funcs: []*ir.Func{b.F}}
	return hangKernel{mod: mod, setup: func(*Machine) []uint64 {
		return []uint64{uint64(start), uint64(start + 10)}
	}}
}

// loadBranchKernel builds
//
//	kernel(r0 a, r1 n) { for (i = 0; i < n; i++) { if (a[i] != 0) break; } return i }
//
// over a zeroed array with a[stop] = 1.
func loadBranchKernel(stop int64) hangKernel {
	b := ir.NewBuilder("kernel", []ir.Param{{Name: "a", Type: ir.Ptr}, {Name: "n", Type: ir.Int}}, ir.Int)
	head, body, latch, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("latch"), b.NewBlock("exit")
	i := b.F.NewReg(ir.Int)
	b.Mov(i, b.ConstInt(0))
	b.Br(head)
	b.SetBlock(head)
	b.CondBr(b.Binop(ir.OpLt, ir.Int, i, 1), body, exit)
	b.SetBlock(body)
	v := b.Load(ir.Int, b.Binop(ir.OpAdd, ir.Ptr, 0, i))
	b.CondBr(b.Binop(ir.OpNe, ir.Int, v, b.ConstInt(0)), exit, latch)
	b.SetBlock(latch)
	b.Mov(i, b.Binop(ir.OpAdd, ir.Int, i, b.ConstInt(1)))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(i)
	mod := &ir.Module{Name: "loadbranch", Funcs: []*ir.Func{b.F}}
	return hangKernel{mod: mod, setup: func(m *Machine) []uint64 {
		a := m.Mem.Alloc(64)
		if stop < 64 {
			m.Mem.SetInt(a+stop, 1)
		}
		return []uint64{uint64(a), 10}
	}}
}

// callKernel builds
//
//	kernel(r0 out, r1 n) { for (i = 0; i < n; i++) out[0] = id(i); }
//
// or, with hook, a loop whose body holds a runtime hook (serviced by no
// hooks) instead of the call.
func callKernel(hook bool) hangKernel {
	idb := ir.NewBuilder("id", []ir.Param{{Name: "x", Type: ir.Int}}, ir.Int)
	idb.Ret(0)
	b := ir.NewBuilder("kernel", []ir.Param{{Name: "out", Type: ir.Ptr}, {Name: "n", Type: ir.Int}}, ir.Void)
	head, body, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("exit")
	i := b.F.NewReg(ir.Int)
	b.Mov(i, b.ConstInt(0))
	b.Br(head)
	b.SetBlock(head)
	b.CondBr(b.Binop(ir.OpLt, ir.Int, i, 1), body, exit)
	b.SetBlock(body)
	v := i
	if hook {
		b.Raw(ir.Instr{Op: ir.OpRTObserve, Imm: 0, Args: []ir.Reg{i, i, 0}})
	} else {
		v = b.Call(1, ir.Int, i)
	}
	b.Store(0, v)
	b.Mov(i, b.Binop(ir.OpAdd, ir.Int, i, b.ConstInt(1)))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(ir.NoReg)
	mod := &ir.Module{Name: "call", Funcs: []*ir.Func{b.F, idb.F}}
	return hangKernel{mod: mod, setup: func(m *Machine) []uint64 {
		return []uint64{uint64(m.Mem.Alloc(1)), 10}
	}}
}

// FuzzHangProof compares hang-proving compiled replicas against the
// reference engine on generated counting loops: the start, bound,
// stride and store base, the comparison, a nested inner loop and a
// walk downward, and a register-file strike on any of the kernel's
// arguments — values near the int64 and MappedLimit edges included.
func FuzzHangProof(f *testing.F) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	for _, s := range []struct {
		start, bound, stride, base int64
		op                         uint8
		nested, neg                bool
		reg, bit                   uint8
		slack                      uint16
	}{
		{0, 10, 1, 1000, 2, false, false, 1, 20, 0},
		{0, 5, 1, 1000, 2, true, false, 1, 12, 7},
		{0, 20, 2, 1000, 1, false, false, 1, 0, 3},
		{maxI - 100, maxI - 101, 1, minI + 201, 4, false, false, 2, 4, 0},
		{minI + 50, minI + 60, 1, maxI, 2, false, false, 1, 30, 5},
		{0, 10, 1, MappedLimit - 60, 2, false, false, 1, 20, 9},
		{0, 10, 1, 60, 2, false, true, 1, 20, 1},
		{10, 0, -1, 1000, 4, false, false, 1, 31, 2},
		{0, 10, 3, 1000, 3, true, false, 4, 8, 11},
	} {
		f.Add(s.start, s.bound, s.stride, s.base, s.op, s.nested, s.neg, s.reg, s.bit, s.slack)
	}
	ops := []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}
	f.Fuzz(func(t *testing.T, start, bound, stride, base int64, op uint8, nested, neg bool, reg, bit uint8, slack uint16) {
		k := countingKernel(ops[int(op)%len(ops)], nested, neg, start, bound, stride, base, 4)
		// Only kernels whose clean run ends quickly and cleanly stand in
		// for a campaign's clean run.
		m := New(k.mod, Config{TraceFn: -1, MaxInstrs: 2000})
		res, err := m.Run(0, k.setup(m))
		m.Release()
		if err != nil {
			t.Skip()
		}
		runHang(t, "fuzz", k, strike(int(reg)%5, uint(bit)), 4*res.Instrs+uint64(slack)%64)
	})
}
