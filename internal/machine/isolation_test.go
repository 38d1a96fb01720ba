package machine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rskip/internal/ir"
)

// isoN is the iteration count of the copy-isolation kernels' loop,
// which spans several capture strides of check points.
const isoN = 200

// isoHooks stores every observed value at its address, so a tainted
// hook operand changes the output.
type isoHooks struct{ n int }

func (h *isoHooks) LoopEnter(m *Machine, id int, inv []uint64) error { return nil }
func (h *isoHooks) Observe(m *Machine, id int, iter int64, value uint64, addr int64) error {
	h.n++
	return m.Mem.StoreWord(addr, value)
}
func (h *isoHooks) LoopExit(m *Machine, id int) error { return nil }
func (h *isoHooks) SaveState() any                    { return h.n }
func (h *isoHooks) RestoreState(state any)            { h.n = state.(int) }
func (h *isoHooks) SameState(saved any) bool          { return h.n == saved.(int) }

// isoK builds kernel(out, n): the case's setup in the entry block,
// then a loop storing x to out[i] for i < n — a replica passes its
// check points there with the struck register differing — then the
// case's tail, which returns.
type isoK struct {
	b      *ir.Builder
	out, n ir.Reg
	x      ir.Reg // 7
	funcs  []*ir.Func
}

// at returns the address out + n + off, past the loop's stores.
func (k *isoK) at(off int64) ir.Reg {
	return k.b.Binop(ir.OpAdd, ir.Ptr, k.b.Binop(ir.OpAdd, ir.Ptr, k.out, k.n), k.b.ConstInt(off))
}

// put stores v at out + n + off.
func (k *isoK) put(off int64, v ir.Reg) { k.b.Store(k.at(off), v) }

// bin emits an integer binop.
func (k *isoK) bin(op ir.Op, a, c ir.Reg) ir.Reg { return k.b.Binop(op, ir.Int, a, c) }

// vote emits dst = vote3(a, c, d).
func (k *isoK) vote(a, c, d ir.Reg) ir.Reg {
	dst := k.b.F.NewReg(ir.Int)
	k.b.Raw(ir.Instr{Op: ir.OpVote3, Dst: dst, Args: []ir.Reg{a, c, d}})
	return dst
}

// loop emits a counted loop of trips iterations around body and
// leaves the builder in its exit block.
func (k *isoK) loop(trips ir.Reg, body func(i ir.Reg)) {
	b := k.b
	i := b.ConstInt(0)
	head, blk, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	b.CondBr(k.bin(ir.OpLt, i, trips), blk, exit)
	b.SetBlock(blk)
	body(i)
	b.Mov(i, k.bin(ir.OpAdd, i, b.ConstInt(1)))
	b.Br(head)
	b.SetBlock(exit)
}

// isoCase is one hand-built copy-isolation case: setup returns the
// register the strike flips (bit), body adds to the main loop's body,
// and tail ends the kernel, returning its result register or NoReg.
type isoCase struct {
	name  string
	bit   uint
	setup func(k *isoK) ir.Reg
	body  func(k *isoK, s, i ir.Reg)
	tail  func(k *isoK, s ir.Reg) ir.Reg
	// isolated: replicas converge by copy isolation, at the first check
	// point after the strike; otherwise they must not, and the strike
	// changes the outcome. split: the clean run casts a split vote.
	// callee: that check point stands in a callee, the caller waiting.
	isolated, split, callee bool
}

func (c *isoCase) module() (*ir.Module, ir.Reg) {
	b := ir.NewBuilder("kernel", []ir.Param{{Name: "out", Type: ir.Ptr}, {Name: "n", Type: ir.Int}}, ir.Int)
	k := &isoK{b: b, out: 0, n: 1}
	k.x = b.ConstInt(7)
	k.put(0, b.ConstInt(100))
	k.put(1, b.ConstInt(101))
	s := c.setup(k)
	k.loop(k.n, func(i ir.Reg) {
		b.Store(b.Binop(ir.OpAdd, ir.Ptr, k.out, i), k.x)
		if c.body != nil {
			c.body(k, s, i)
		}
	})
	ret := c.tail(k, s)
	if ret == ir.NoReg {
		b.F.Ret = ir.Void
	}
	b.Ret(ret)
	return &ir.Module{Name: c.name, Funcs: append([]*ir.Func{b.F}, k.funcs...)}, s
}

// seven is the shadow setup: a copy of x nothing re-syncs.
func seven(k *isoK) ir.Reg { return k.b.ConstInt(7) }

// void ends a tail without a result.
func void(k *isoK, s ir.Reg) ir.Reg { return ir.NoReg }

// putFn adds put(p, v), which stores v at p, and returns its index.
func (k *isoK) putFn() int {
	b := ir.NewBuilder("put", []ir.Param{{Name: "p", Type: ir.Ptr}, {Name: "v", Type: ir.Int}}, ir.Void)
	b.Store(0, 1)
	b.Ret(ir.NoReg)
	k.funcs = append(k.funcs, b.F)
	return len(k.funcs)
}

// longFn adds long(i), a two-block callee whose first block holds
// nearly all its instructions, so a check point lands at its second
// block's entry with the caller waiting; it returns i*3.
func (k *isoK) longFn() int {
	b := ir.NewBuilder("long", []ir.Param{{Name: "i", Type: ir.Int}}, ir.Int)
	v := b.ConstInt(0)
	for j := 0; j < 30; j++ {
		b.Mov(v, b.Binop(ir.OpAdd, ir.Int, v, 0))
	}
	tail := b.NewBlock("tail")
	b.Br(tail)
	b.SetBlock(tail)
	b.Ret(b.Binop(ir.OpSub, ir.Int, v, b.Binop(ir.OpMul, ir.Int, 0, b.ConstInt(27))))
	k.funcs = append(k.funcs, b.F)
	return len(k.funcs)
}

var isoCases = []isoCase{
	// Rejections: a tainted value reaches an effect.
	{name: "vote of two tainted operands", setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.put(2, k.vote(k.bin(ir.OpAdd, s, k.b.ConstInt(0)), s, k.x))
		return ir.NoReg
	}},
	// A trapping op's result reaches only one vote operand: only the
	// trap, which the vote cannot mask, makes it an effect.
	{name: "load address", bit: 30, setup: func(k *isoK) ir.Reg { return k.at(0) }, tail: func(k *isoK, s ir.Reg) ir.Reg {
		y, z := k.b.Load(ir.Int, k.at(0)), k.b.Load(ir.Int, k.at(0))
		k.put(2, k.vote(y, k.b.Load(ir.Int, s), z))
		return ir.NoReg
	}},
	{name: "divisor", setup: func(k *isoK) ir.Reg { return k.b.ConstInt(1) }, tail: func(k *isoK, s ir.Reg) ir.Reg {
		one := k.b.ConstInt(1)
		k.put(2, k.vote(k.bin(ir.OpDiv, k.x, one), k.bin(ir.OpDiv, k.x, s), k.bin(ir.OpDiv, k.x, one)))
		return ir.NoReg
	}},
	{name: "ftoi", bit: 30, setup: func(k *isoK) ir.Reg { return k.b.ConstFloat(2.5) }, tail: func(k *isoK, s ir.Reg) ir.Reg {
		y := k.b.Unop(ir.OpFToI, ir.Int, k.b.ConstFloat(2.5))
		k.put(2, k.vote(y, k.b.Unop(ir.OpFToI, ir.Int, s), y))
		return ir.NoReg
	}},
	{name: "store value", setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.put(2, s)
		return ir.NoReg
	}},
	{name: "store address", setup: func(k *isoK) ir.Reg { return k.at(2) }, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.b.Store(s, k.x)
		return ir.NoReg
	}},
	{name: "condbr", setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		b := k.b
		yes, no, join := b.NewBlock("yes"), b.NewBlock("no"), b.NewBlock("join")
		b.CondBr(k.bin(ir.OpEq, s, k.x), yes, no)
		for v, blk := range []int{yes, no} {
			b.SetBlock(blk)
			k.put(2, b.ConstInt(int64(v)))
			b.Br(join)
		}
		b.SetBlock(join)
		return ir.NoReg
	}},
	{name: "call argument", setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.b.Call(k.putFn(), ir.Void, k.at(2), s)
		return ir.NoReg
	}},
	{name: "ret", setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg { return s }},
	{name: "hook argument", setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.b.Raw(ir.Instr{Op: ir.OpRTObserve, Args: []ir.Reg{k.x, s, k.at(2)}})
		return ir.NoReg
	}},
	{name: "check2", setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.b.Raw(ir.Instr{Op: ir.OpCheck2, Args: []ir.Reg{k.x, s}})
		return ir.NoReg
	}},
	// Taint that reaches a store only once it has gone round a loop's
	// back edge: clean on the first iteration, stored on the second.
	{name: "store round a back edge", setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		q := k.b.ConstInt(7)
		k.loop(k.b.ConstInt(2), func(ir.Reg) {
			k.put(3, q)
			k.b.Mov(q, s)
		})
		return ir.NoReg
	}},

	// Acceptances: the struck copy reaches nothing but one vote operand.
	{name: "shadow chain into one vote operand", isolated: true, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		three, one := k.b.ConstInt(3), k.b.ConstInt(1)
		y := k.bin(ir.OpMul, k.bin(ir.OpAdd, k.x, one), three)
		z := k.bin(ir.OpMul, k.bin(ir.OpAdd, k.x, one), three)
		u := k.bin(ir.OpMul, k.bin(ir.OpAdd, s, one), three)
		v := k.vote(y, u, z)
		k.put(2, v)
		return v
	}},
	{name: "taint round a loop back edge", isolated: true, setup: func(k *isoK) ir.Reg {
		s := seven(k)
		for range 3 {
			k.b.ConstInt(0) // the three accumulators, r3..r5 after s
		}
		return s
	}, body: func(k *isoK, s, i ir.Reg) {
		acc := s + 1
		k.b.Mov(acc, k.bin(ir.OpAdd, acc, k.x))
		k.b.Mov(acc+1, k.bin(ir.OpAdd, acc+1, k.x))
		k.b.Mov(acc+2, k.bin(ir.OpAdd, acc+2, s))
	}, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.put(2, k.vote(s+1, s+2, s+3))
		return ir.NoReg
	}},
	{name: "caller frame differing in retDst", isolated: true, callee: true, setup: seven, body: func(k *isoK, s, i ir.Reg) {
		long := k.longFn()
		r := k.bin(ir.OpAdd, s, k.b.ConstInt(0))
		k.put(4, k.vote(k.x, r, k.x))
		k.b.Raw(ir.Instr{Op: ir.OpCall, Dst: r, Args: []ir.Reg{i}, Callee: long})
		k.put(5, r)
	}, tail: void},

	// The clean run's vote is split, so outvoting the struck operand
	// changes the result: the rule is off.
	{name: "split vote in the clean run", split: true, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.put(2, k.vote(s, k.b.ConstInt(2), k.x))
		return ir.NoReg
	}},
}

// isoRun is one run of a copy-isolation kernel.
type isoRun struct {
	res                RunResult
	err                string
	fired              bool
	tag                ir.InstrTag
	op                 ir.Op
	fn                 int
	out                []int64
	converged, isolate bool
	skipped            uint64
}

// runIso runs mod with cfg — from zero, or resumed from the latest
// snapshot of cfg.Converge before the fault — and reads its outcome.
func runIso(mod *ir.Module, cfg Config) isoRun {
	cfg.Hooks = &isoHooks{}
	m := New(mod, cfg)
	defer m.Release()
	out := m.Mem.Alloc(isoN + 8)
	var res RunResult
	var err error
	if snap := cfg.Converge.Latest(cfg.Fault.Target, cfg.MaxInstrs); snap != nil {
		res, err = m.Resume(snap)
	} else {
		res, err = m.Run(0, []uint64{uint64(out), isoN})
	}
	r := isoRun{res: res, err: fmt.Sprint(err), fired: m.FaultFired()}
	r.tag, r.op, r.fn = m.FaultSite()
	if err == nil {
		r.out = m.Mem.ReadInts(out, isoN+8)
	}
	w := m.Work()
	r.skipped, r.converged, r.isolate = w.Converged, w.Converged > 0, w.Isolated
	return r
}

// TestCopyIsolationEdgeCases holds the copy-isolation rule to its
// cases: a strike on a register that reaches an effect (a store, a
// branch, an address, a divisor, a conversion, a call, a return, a
// hook, a check or two vote operands, also only round a back edge)
// never converges by isolation, one that reaches a single vote operand
// (through a chain, round a back edge, or from a caller frame whose
// retDst also differs) does, and a clean run that cast a split vote
// turns the rule off. On every pair of capture and replay engines the
// replayed replica equals the from-zero reference run in every field.
func TestCopyIsolationEdgeCases(t *testing.T) {
	for _, c := range isoCases {
		t.Run(c.name, func(t *testing.T) {
			mod, s := c.module()
			if err := ir.Verify(mod); err != nil {
				t.Fatal(err)
			}
			region := map[int]bool{}
			for bi := range mod.Funcs[0].Blocks {
				region[bi] = true
			}
			base := Config{RegionBlocks: map[int]map[int]bool{0: region}, TraceFn: -1}
			for _, capBe := range allBackends {
				capt := NewCapture(4)
				ccfg := base
				ccfg.Backend, ccfg.Capture, ccfg.Hooks = capBe, capt, &isoHooks{}
				cm := New(mod, ccfg)
				out := cm.Mem.Alloc(isoN + 8)
				clean, err := cm.Run(0, []uint64{uint64(out), isoN})
				if err != nil {
					t.Fatal(err)
				}
				cleanOut := cm.Mem.ReadInts(out, isoN+8)
				cm.Release()
				if capt.split != c.split {
					t.Fatalf("capture on %v: split vote recorded %v, want %v", capBe, capt.split, c.split)
				}
				rcfg := base
				rcfg.Untimed, rcfg.MaxInstrs = true, 4*clean.Instrs
				// Strike s in the kernel's own frame, a quarter into the
				// region or later, where the first check point after the
				// strike stands where the case needs it.
				var want isoRun
				var check *Snapshot
				for target := clean.Region / 4; ; target++ {
					rcfg.Fault = &FaultPlan{Kind: FaultRegFile, Target: target, Pick: int(s), Bit: c.bit}
					rcfg.Backend = BackendReference
					want = runIso(mod, rcfg)
					check = nil
					for _, snap := range capt.snaps {
						if snap.c.Region > target {
							check = snap
							break
						}
					}
					if check == nil {
						t.Fatalf("capture on %v: no check point after region %d", capBe, target)
					}
					if want.fired && want.fn == 0 && (len(check.frames) == 2) == c.callee {
						break
					}
				}
				changed := want.err != "<nil>" || want.res.Ret != clean.Ret || !reflect.DeepEqual(want.out, cleanOut)
				if changed == c.isolated {
					t.Fatalf("capture on %v: the strike changes the outcome: %v (%s), want %v", capBe, changed, want.err, !c.isolated)
				}
				rcfg.Converge = capt
				for _, be := range allBackends {
					rcfg.Backend = be
					got := runIso(mod, rcfg)
					label := fmt.Sprintf("capture %v, replay %v", capBe, be)
					if got.isolate != (c.isolated && !c.split) || got.isolate && !got.converged {
						t.Errorf("%s: converged %v, by isolation %v; want isolation %v", label, got.converged, got.isolate, c.isolated)
					}
					if at := capt.final.c.Dyn - check.c.Dyn; got.isolate && got.skipped != at {
						t.Errorf("%s: converged skipping %d instructions, want %d: not at the first check point", label, got.skipped, at)
					}
					got.converged, got.isolate, got.skipped = false, false, 0
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: replayed %+v\nwant from zero %+v", label, got, want)
					}
				}
			}
		})
	}
}

// TestCopyIsolationOpTable: every op the walk lets a tainted operand
// through — pure ops, which taint their destination, and Vote3 — never
// makes either engine return an error, whatever its operands; the
// trapping ops and every op with an effect reject a tainted operand.
func TestCopyIsolationOpTable(t *testing.T) {
	cls := isoClasses()
	for _, op := range []ir.Op{ir.OpDiv, ir.OpRem, ir.OpFToI, ir.OpLoad, ir.OpStore, ir.OpAlloca, ir.OpCondBr,
		ir.OpRet, ir.OpCall, ir.OpCheck2, ir.OpRTLoopEnter, ir.OpRTObserve, ir.OpRTLoopExit, ir.OpInvalid} {
		if cls[op] != isoReject {
			t.Errorf("%v: class %d, want reject", op, cls[op])
		}
	}
	if cls[ir.OpVote3] != isoVote || cls[ir.OpAdd] != isoPure || cls[ir.OpFDiv] != isoPure {
		t.Errorf("vote3, add, fdiv: classes %d, %d, %d", cls[ir.OpVote3], cls[ir.OpAdd], cls[ir.OpFDiv])
	}
	vals := append([]uint64{2, 3, 1<<63 + 1, 1 << 62, f2b(-0.0), f2b(math.Inf(-1)), f2b(1e19), f2b(-1e19),
		f2b(math.SmallestNonzeroFloat64), uint64(MappedLimit - 1)}, trapProbes...)
	rng := rand.New(rand.NewSource(1))
	for range 20 {
		vals = append(vals, rng.Uint64())
	}
	for op := ir.Op(0); int(op) < ir.NumOps; op++ {
		if cls[op] == isoReject {
			if op.IsPure() && !canTrap(op) {
				t.Errorf("%v: pure and never traps, yet rejected", op)
			}
			continue
		}
		in := &ir.Instr{Op: op, Dst: 3, Args: []ir.Reg{0, 1, 2}}
		d := decode(in)
		closure := compileIns(&d, -1, -1)
		m := &Machine{Mem: NewMemory()}
		m.pl.off = true
		f := &frame{fn: &ir.Func{}, regs: make([]uint64, 4)}
		for _, a := range vals {
			for _, b := range vals {
				for _, c := range vals {
					f.regs[0], f.regs[1], f.regs[2] = a, b, c
					if err := m.exec(f, in); err != nil {
						t.Fatalf("%v(%#x, %#x, %#x): reference engine: %v", op, a, b, c, err)
					}
					if err := closure(m, f); err != nil {
						t.Fatalf("%v(%#x, %#x, %#x): compiled engine: %v", op, a, b, c, err)
					}
				}
			}
		}
	}
}
