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
	err            error
	proved, nested bool
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
	w := m.Work()
	skipped, proved := w.HangSkipped, w.HangSkipped > 0
	if proved {
		var he *HangError
		if !errors.As(werr, &he) || skipped == 0 || skipped >= got.Instrs {
			t.Errorf("%s: proof skipped %d of %d instructions of a run that ends %v", label, skipped, got.Instrs, werr)
		}
		if m.conv.c != nil || m.conv.at != noCheck {
			t.Errorf("%s: convergence check still armed after the proof", label)
		}
	} else if w.HangNested {
		t.Errorf("%s: a nested step is reported without a proof", label)
	}
	return hangRun{err: gerr, proved: proved, nested: w.HangNested}
}

// nest is the shape of a nestLoop kernel: the outer loop's comparison,
// the depth of the nest (1 to 3), a downward outer walk, and an
// innermost trip count that follows the outer counter.
type nest struct {
	op       ir.Op
	depth    int
	neg, tri bool
}

// nestLoop builds
//
//	kernel(r0 start, r1 bound, r2 stride, r3 base, r4 n1, r5 n2) {
//	  i = start
//	  while (op(i, bound)) {
//	    [depth >= 2: for (k1 = 0; k1 < n1; k1++) {
//	      [depth 3: for (k2 = 0; k2 < n2 (tri: i); k2++) store base+i+k2, k2]
//	      store base+k1, k1
//	    }]
//	    store base+i, i   (sub instead of add when neg)
//	    i += stride
//	  }
//	  return i
//	}
//
// the fuzz target's and several edge cases' kernel.
func nestLoop(s nest) *ir.Module {
	ps := []ir.Param{{Name: "start", Type: ir.Int}, {Name: "bound", Type: ir.Int},
		{Name: "stride", Type: ir.Int}, {Name: "base", Type: ir.Ptr},
		{Name: "n1", Type: ir.Int}, {Name: "n2", Type: ir.Int}}
	b := ir.NewBuilder("kernel", ps, ir.Int)
	head, body, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("exit")
	i := b.F.NewReg(ir.Int)
	b.Mov(i, 0)
	b.Br(head)
	b.SetBlock(head)
	b.CondBr(b.Binop(s.op, ir.Int, i, 1), body, exit)
	b.SetBlock(body)
	// counted emits for (k = 0; k < n; k++) { inner(k); store at(k), k }.
	counted := func(n ir.Reg, at func(k ir.Reg) ir.Reg, inner func(k ir.Reg)) {
		h, lb, after := b.NewBlock("khead"), b.NewBlock("kbody"), b.NewBlock("kafter")
		k := b.F.NewReg(ir.Int)
		b.Mov(k, b.ConstInt(0))
		b.Br(h)
		b.SetBlock(h)
		b.CondBr(b.Binop(ir.OpLt, ir.Int, k, n), lb, after)
		b.SetBlock(lb)
		inner(k)
		b.Store(at(k), k)
		b.Mov(k, b.Binop(ir.OpAdd, ir.Int, k, b.ConstInt(1)))
		b.Br(h)
		b.SetBlock(after)
	}
	if s.depth >= 2 {
		counted(4, func(k1 ir.Reg) ir.Reg { return b.Binop(ir.OpAdd, ir.Ptr, 3, k1) }, func(ir.Reg) {
			if s.depth < 3 {
				return
			}
			n2 := ir.Reg(5)
			if s.tri {
				n2 = i
			}
			counted(n2, func(k2 ir.Reg) ir.Reg {
				return b.Binop(ir.OpAdd, ir.Ptr, b.Binop(ir.OpAdd, ir.Ptr, 3, i), k2)
			}, func(ir.Reg) {})
		})
	}
	addr := ir.OpAdd
	if s.neg {
		addr = ir.OpSub
	}
	b.Store(b.Binop(addr, ir.Ptr, 3, i), i)
	b.Mov(i, b.Binop(ir.OpAdd, ir.Int, i, 2))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(i)
	return &ir.Module{Name: "hang", Funcs: []*ir.Func{b.F}}
}

// nestKernel runs nestLoop with fixed arguments.
func nestKernel(s nest, start, bound, stride, base, n1, n2 int64) hangKernel {
	return hangKernel{mod: nestLoop(s), setup: func(*Machine) []uint64 {
		return []uint64{uint64(start), uint64(bound), uint64(stride), uint64(base), uint64(n1), uint64(n2)}
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
// loop — taking a nested loop as one step where the case says so. Each
// case runs under a range of budgets so that the budget runs out at
// every instruction of an iteration of its outermost loop, the nested
// loops' instructions among them.
func TestHangProofEdgeCases(t *testing.T) {
	const maxI = math.MaxInt64
	lt, ne := nest{op: ir.OpLt, depth: 1}, nest{op: ir.OpNe, depth: 1}
	lt2, lt3 := nest{op: ir.OpLt, depth: 2}, nest{op: ir.OpLt, depth: 3}
	for _, tc := range []struct {
		name   string
		k      hangKernel
		plan   FaultPlan
		prove  bool // a proof must engage
		nested bool // a proof must take a nested loop as one step
		class  string
		span   uint64 // budgets, one instruction apart
	}{
		// i < bound with a strike on bound: a plain runaway.
		{"runaway", nestKernel(lt, 0, 10, 1, 1000, 0, 0), strike(1, 20), true, false, "hang", 24},
		// A strike on the inner loop's trip count leaves it finite; the
		// outer loop, whose iterations take it as one step, is the
		// runaway.
		{"nested-invariant-inner", nestKernel(lt2, 0, 5, 1, 1000, 4, 0), strike(1, 20), true, true, "hang", 24},
		// i != bound with a stride that skips the struck bound.
		{"ne-stride-skips", nestKernel(ne, 0, 20, 2, 1000, 0, 0), strike(1, 0), true, false, "hang", 24},
		// i != bound reached, later than the clean run but within the
		// budget: the loop exits.
		{"ne-reached", nestKernel(ne, 0, 20, 2, 1000, 0, 0), strike(1, 6), false, false, "ok", 24},
		// The counter wraps past MaxInt64 before the budget ends and
		// i > start-1 turns false: the loop exits.
		{"counter-wraps", wrapKernel(maxI - 100), strike(1, 20), false, false, "ok", 24},
		// Stores walk past MappedLimit, and below zero, before the
		// budget ends: a segfault at the same instruction.
		{"address-past-limit", nestKernel(lt, 0, 10, 1, MappedLimit-60, 0, 0), strike(1, 20), false, false, "segfault", 24},
		{"address-negative", nestKernel(nest{op: ir.OpLt, depth: 1, neg: true}, 0, 10, 1, 60, 0, 0), strike(1, 20), false, false, "segfault", 24},
		// A strike on base moves every store out of range at once.
		{"address-out-now", nestKernel(lt, 0, 10, 1, 1000, 0, 0), strike(3, 31), false, false, "segfault", 24},
		// The exit branches on a loaded value: no proof, however long.
		{"load-branch", loadBranchKernel(35), strike(1, 10), false, false, "ok", 24},
		{"load-branch-hang", loadBranchKernel(1 << 20), strike(1, 10), false, false, "hang", 24},
		// The outer loop's exit branches on the value a nested loop
		// loaded last: no proof.
		{"nest-load-branch", nestLoadKernel(35), strike(1, 10), false, false, "ok", 24},
		// An inner branch on k+i keeps its outcome over the inner loop at
		// the first outer iterations after the strike, but not at later
		// ones, where the inner path changes: a comparison that varies
		// with both loops' indices rejects the inner loop as one step.
		{"nest-diagonal-branch", diagonalKernel(12), strike(1, 20), false, false, "hang", 40},
		// Calls and runtime hooks in the loop reject it.
		{"call", callKernel(false), strike(1, 20), false, false, "hang", 24},
		{"hook", callKernel(true), strike(1, 20), false, false, "hang", 24},
		// Three deep, an outer iteration is 132 instructions. A struck
		// middle bound makes the middle loop the runaway, proved with
		// the innermost loop as one step; a struck outer bound makes the
		// outer loop the runaway, proved with the middle loop, and the
		// innermost inside it, as one step each.
		{"nest3-middle-bound", nestKernel(lt3, 0, 3, 1, 1000, 3, 3), strike(4, 20), true, true, "hang", 140},
		{"nest3-outer-bound", nestKernel(lt3, 0, 3, 1, 1000, 3, 3), strike(1, 20), true, true, "hang", 140},
		// A struck trip count makes a nested loop long but finite: 516
		// iterations of the inner loop, two levels deep, or 259 of the
		// innermost, three deep. The budget ends inside the second
		// outer iteration's nested loop, so the dry run that proves the
		// outer loop (after handing on from the nested loop the attempt
		// found first) reaches the budget's end inside a nested step,
		// before it gets back to the header: that proof holds, skipping
		// the rest of the nested loop, and is what lets these replicas
		// skip their runaway loops at all.
		{"nested-struck-inner-count", nestKernel(lt2, 0, 5, 1, 1000, 4, 0), strike(4, 9), true, true, "hang", 24},
		{"nest3-struck-innermost-count", nestKernel(lt3, 0, 3, 1, 1000, 3, 3), strike(5, 8), true, true, "hang", 140},
		// An innermost trip count that follows the outer counter differs
		// from one outer iteration to the next: the outer loop is not
		// proved, and no inner loop is long enough to be.
		{"nest3-triangular", nestKernel(nest{op: ir.OpLt, depth: 3, tri: true}, 0, 3, 1, 1000, 3, 0), strike(1, 20), false, false, "hang", 140},
		// The innermost store, base+i+k2, is in range in the first outer
		// iterations and leaves [0, MappedLimit) in outer iteration 90,
		// just before the ones the budgets here end in (91 and 92, with
		// the outer store still in range): only the store's bound at the
		// innermost loop's last iteration, not its first, keeps the
		// outer loop from being proved.
		{"nest3-inner-store-leaves", nestKernel(lt3, 0, 3, 1, MappedLimit-92, 3, 3), strike(1, 20), false, false, "segfault", 140},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.k.fi = 0
			clean := cleanInstrs(t, tc.k)
			proved, nested := 0, 0
			for extra := uint64(0); extra < tc.span; extra++ {
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
				if r.nested {
					nested++
				}
			}
			if tc.prove && proved == 0 {
				t.Errorf("no proof engaged")
			}
			if !tc.prove && proved != 0 {
				t.Errorf("%d proofs engaged where none may", proved)
			}
			if tc.nested && nested == 0 {
				t.Errorf("no proof took a nested loop as one step")
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

// nestLoadKernel builds
//
//	kernel(r0 a, r1 n, r2 m) {
//	  for (i = 0; i < n; i++) {
//	    for (k = 0; k < m; k++) v = a[i+k]
//	    if (v != 0) break
//	  }
//	  return i
//	}
//
// over a zeroed array with a[stop] = 1: the value the inner loop leaves
// decides the outer loop's exit.
func nestLoadKernel(stop int64) hangKernel {
	b := ir.NewBuilder("kernel", []ir.Param{{Name: "a", Type: ir.Ptr}, {Name: "n", Type: ir.Int}, {Name: "m", Type: ir.Int}}, ir.Int)
	head, body, khead, kbody, after, latch, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("khead"),
		b.NewBlock("kbody"), b.NewBlock("after"), b.NewBlock("latch"), b.NewBlock("exit")
	i, k, v := b.F.NewReg(ir.Int), b.F.NewReg(ir.Int), b.F.NewReg(ir.Int)
	b.Mov(i, b.ConstInt(0))
	b.Mov(v, b.ConstInt(0))
	b.Br(head)
	b.SetBlock(head)
	b.CondBr(b.Binop(ir.OpLt, ir.Int, i, 1), body, exit)
	b.SetBlock(body)
	b.Mov(k, b.ConstInt(0))
	b.Br(khead)
	b.SetBlock(khead)
	b.CondBr(b.Binop(ir.OpLt, ir.Int, k, 2), kbody, after)
	b.SetBlock(kbody)
	b.Mov(v, b.Load(ir.Int, b.Binop(ir.OpAdd, ir.Ptr, b.Binop(ir.OpAdd, ir.Ptr, 0, i), k)))
	b.Mov(k, b.Binop(ir.OpAdd, ir.Int, k, b.ConstInt(1)))
	b.Br(khead)
	b.SetBlock(after)
	b.CondBr(b.Binop(ir.OpNe, ir.Int, v, b.ConstInt(0)), exit, latch)
	b.SetBlock(latch)
	b.Mov(i, b.Binop(ir.OpAdd, ir.Int, i, b.ConstInt(1)))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(i)
	mod := &ir.Module{Name: "nestload", Funcs: []*ir.Func{b.F}}
	return hangKernel{mod: mod, setup: func(m *Machine) []uint64 {
		a := m.Mem.Alloc(64)
		m.Mem.SetInt(a+stop, 1)
		return []uint64{uint64(a), 10, 3}
	}}
}

// diagonalKernel builds
//
//	kernel(r0 base, r1 n, r2 m, r3 lim) {
//	  for (i = 0; i < n; i++)
//	    for (k = 0; k < m; k++) if (k + i < lim) base[k] = k
//	}
//
// whose inner branch keeps its outcome through every inner iteration of
// the first outer iterations and changes inside the inner loop in later
// ones.
func diagonalKernel(lim int64) hangKernel {
	b := ir.NewBuilder("kernel", []ir.Param{{Name: "base", Type: ir.Ptr}, {Name: "n", Type: ir.Int},
		{Name: "m", Type: ir.Int}, {Name: "lim", Type: ir.Int}}, ir.Void)
	head, body, khead, kbody, store, klatch, latch, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("khead"),
		b.NewBlock("kbody"), b.NewBlock("store"), b.NewBlock("klatch"), b.NewBlock("latch"), b.NewBlock("exit")
	i, k := b.F.NewReg(ir.Int), b.F.NewReg(ir.Int)
	b.Mov(i, b.ConstInt(0))
	b.Br(head)
	b.SetBlock(head)
	b.CondBr(b.Binop(ir.OpLt, ir.Int, i, 1), body, exit)
	b.SetBlock(body)
	b.Mov(k, b.ConstInt(0))
	b.Br(khead)
	b.SetBlock(khead)
	b.CondBr(b.Binop(ir.OpLt, ir.Int, k, 2), kbody, latch)
	b.SetBlock(kbody)
	b.CondBr(b.Binop(ir.OpLt, ir.Int, b.Binop(ir.OpAdd, ir.Int, k, i), 3), store, klatch)
	b.SetBlock(store)
	b.Store(b.Binop(ir.OpAdd, ir.Ptr, 0, k), k)
	b.Br(klatch)
	b.SetBlock(klatch)
	b.Mov(k, b.Binop(ir.OpAdd, ir.Int, k, b.ConstInt(1)))
	b.Br(khead)
	b.SetBlock(latch)
	b.Mov(i, b.Binop(ir.OpAdd, ir.Int, i, b.ConstInt(1)))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(ir.NoReg)
	mod := &ir.Module{Name: "diagonal", Funcs: []*ir.Func{b.F}}
	return hangKernel{mod: mod, setup: func(m *Machine) []uint64 {
		return []uint64{uint64(m.Mem.Alloc(8)), 3, 4, uint64(lim)}
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
// reference engine on generated loop nests: the start, bound, stride
// and store base, the outer comparison, a nest 1 to 3 deep with a trip
// count per nested level, a downward outer walk, and a register-file
// strike on any of the kernel's arguments — the outer bound or a nested
// trip count among them, values near the int64 and MappedLimit edges
// included.
func FuzzHangProof(f *testing.F) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	for _, s := range []struct {
		start, bound, stride, base int64
		op, depth                  uint8
		n1, n2                     uint8
		neg                        bool
		reg, bit                   uint8
		slack                      uint16
	}{
		{0, 10, 1, 1000, 2, 1, 0, 0, false, 1, 20, 0},
		{0, 5, 1, 1000, 2, 2, 4, 0, false, 1, 12, 7},
		{0, 20, 2, 1000, 1, 1, 0, 0, false, 1, 0, 3},
		{maxI - 100, maxI - 101, 1, minI + 201, 4, 1, 0, 0, false, 2, 4, 0},
		{minI + 50, minI + 60, 1, maxI, 2, 1, 0, 0, false, 1, 30, 5},
		{0, 10, 1, MappedLimit - 60, 2, 1, 0, 0, false, 1, 20, 9},
		{0, 10, 1, 60, 2, 1, 0, 0, true, 1, 20, 1},
		{10, 0, -1, 1000, 4, 1, 0, 0, false, 1, 31, 2},
		{0, 10, 3, 1000, 3, 2, 4, 0, false, 4, 8, 11},
		{0, 3, 1, 1000, 2, 3, 3, 3, false, 1, 20, 40},
		{0, 3, 1, 1000, 2, 3, 3, 3, false, 4, 18, 17},
		{0, 3, 1, 1000, 2, 3, 2, 3, false, 5, 19, 63},
		{0, 3, 1, MappedLimit - 20, 2, 3, 3, 3, false, 1, 20, 0},
	} {
		f.Add(s.start, s.bound, s.stride, s.base, s.op, s.depth, s.n1, s.n2, s.neg, s.reg, s.bit, s.slack)
	}
	ops := []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}
	f.Fuzz(func(t *testing.T, start, bound, stride, base int64, op, depth, n1, n2 uint8, neg bool, reg, bit uint8, slack uint16) {
		s := nest{op: ops[int(op)%len(ops)], depth: 1 + int(depth)%3, neg: neg}
		k := nestKernel(s, start, bound, stride, base, int64(n1%8), int64(n2%8))
		// Only kernels whose clean run ends quickly and cleanly stand in
		// for a campaign's clean run.
		m := New(k.mod, Config{TraceFn: -1, MaxInstrs: 2000})
		res, err := m.Run(0, k.setup(m))
		m.Release()
		if err != nil {
			t.Skip()
		}
		runHang(t, "fuzz", k, strike(int(reg)%6, uint(bit)), 4*res.Instrs+uint64(slack)%128)
	})
}
