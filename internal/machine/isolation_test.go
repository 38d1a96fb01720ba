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
	// noRanges: the capture's load ranges are dropped, which turns the
	// rule off for a tainted load address. why: the part of the state,
	// or the kind of op the walk stopped at, that fails the last check
	// of a replica that does not converge.
	isolated, split, callee, noRanges bool
	why                               Reject
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

// shadowLoad is the tail of the shadow-pointer cases: it loads from
// the struck pointer s, a copy of out + n, into one vote operand.
func shadowLoad(k *isoK, s ir.Reg) ir.Reg {
	y, z := k.b.Load(ir.Int, k.at(0)), k.b.Load(ir.Int, k.at(0))
	k.put(2, k.vote(y, k.b.Load(ir.Int, s), z))
	return ir.NoReg
}

// indexPair is the setup of the scaled-index cases: the struck index
// s, zero, and the scale s+1, three unless the loop body rewrites it.
func indexPair(k *isoK) ir.Reg {
	s := k.b.ConstInt(0)
	k.b.ConstInt(3)
	return s
}

// scaledLoad is the tail of the scaled-index cases: it loads from
// out + n + s*(s+1) into one vote operand.
func scaledLoad(k *isoK, s ir.Reg) ir.Reg {
	y, z := k.b.Load(ir.Int, k.at(0)), k.b.Load(ir.Int, k.at(0))
	p := k.b.Binop(ir.OpAdd, ir.Ptr, k.at(0), k.bin(ir.OpMul, s, s+1))
	k.put(2, k.vote(y, k.b.Load(ir.Int, p), z))
	return ir.NoReg
}

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
	{name: "vote of two tainted operands", why: RejectWalkVote, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.put(2, k.vote(k.bin(ir.OpAdd, s, k.b.ConstInt(0)), s, k.x))
		return ir.NoReg
	}},
	// A trapping op's result reaches only one vote operand: only the
	// trap, which the vote cannot mask, makes it an effect. A shadow
	// pointer struck in bit 30 shifts the clean address past the
	// mapped space.
	{name: "load address", why: RejectWalkLoad, bit: 30, setup: func(k *isoK) ir.Reg { return k.at(0) }, tail: shadowLoad},
	// The pointer, struck in bit 7, shifts down by 128 from out + n;
	// the loop loads below it, so every address the clean run loaded
	// there but the top 73 falls below zero once shifted.
	{name: "load range shifted below zero", why: RejectWalkLoad, bit: 7, setup: func(k *isoK) ir.Reg { return k.at(0) }, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.loop(k.n, func(j ir.Reg) {
			y := k.b.Load(ir.Int, k.b.Binop(ir.OpSub, ir.Ptr, k.at(0), j))
			u := k.b.Load(ir.Int, k.b.Binop(ir.OpSub, ir.Ptr, s, j))
			k.put(2, k.vote(y, u, y))
		})
		return ir.NoReg
	}},
	// An index struck in bit 8 and subtracted from out + n moves the
	// address 256 words down, below zero.
	{name: "load address minus a struck index", why: RejectWalkLoad, bit: 8, setup: indexPair, tail: func(k *isoK, s ir.Reg) ir.Reg {
		y, z := k.b.Load(ir.Int, k.at(0)), k.b.Load(ir.Int, k.at(0))
		k.put(2, k.vote(y, k.b.Load(ir.Int, k.b.Binop(ir.OpSub, ir.Ptr, k.at(0), s)), z))
		return ir.NoReg
	}},
	// A load through a struck shadow pointer may read another word,
	// so what it loads is tainted too.
	{name: "value loaded through a shadow pointer, stored", why: RejectWalkStore, setup: func(k *isoK) ir.Reg { return k.at(0) }, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.put(2, k.b.Load(ir.Int, s))
		return ir.NoReg
	}},
	// The scale is what a call returns, 21, while the caller waits
	// with the register still zero; the tail's straight run puts a
	// check point in the callee.
	{name: "index scaled by a pending call's result", why: RejectWalkLoad, bit: 24, callee: true, setup: indexPair, tail: func(k *isoK, s ir.Reg) ir.Reg {
		b := k.b
		v := b.ConstInt(0)
		for range 1100 {
			b.Mov(v, k.bin(ir.OpAdd, v, k.x))
		}
		r := b.F.NewReg(ir.Int)
		b.Raw(ir.Instr{Op: ir.OpCall, Dst: r, Args: []ir.Reg{k.x}, Callee: k.longFn()})
		y, z := b.Load(ir.Int, k.at(0)), b.Load(ir.Int, k.at(0))
		p := b.Binop(ir.OpAdd, ir.Ptr, k.at(0), k.bin(ir.OpMul, s, r))
		k.put(2, k.vote(y, b.Load(ir.Int, p), z))
		return ir.NoReg
	}},
	// The scale is the loop counter shifted by 21: small where the
	// check stands, past the mapped space once the loop has run. The
	// check stands in a callee, so the caller's walk starts past the
	// write in the same block and meets it round the back edge.
	{name: "index scaled by a register the loop writes", why: RejectWalkLoad, callee: true, setup: indexPair, body: func(k *isoK, s, i ir.Reg) {
		k.b.Mov(s+1, k.bin(ir.OpShl, i, k.b.ConstInt(21)))
		k.b.Call(k.longFn(), ir.Int, i)
	}, tail: scaledLoad},
	// The pointer, struck in bit 27, reaches the load as itself on one
	// path and doubled on the other, the one the run takes, which
	// leaves the mapped space.
	{name: "paths joining with different offsets", why: RejectWalkLoad, bit: 27, setup: func(k *isoK) ir.Reg {
		s := k.at(0)
		k.b.ConstInt(2)
		return s
	}, tail: func(k *isoK, s ir.Reg) ir.Reg {
		b := k.b
		q := b.F.NewReg(ir.Ptr)
		yes, no, join := b.NewBlock("yes"), b.NewBlock("no"), b.NewBlock("join")
		b.CondBr(k.bin(ir.OpEq, k.x, b.ConstInt(7)), yes, no)
		b.SetBlock(yes)
		b.Mov(q, b.Binop(ir.OpMul, ir.Ptr, s, s+1))
		b.Br(join)
		b.SetBlock(no)
		b.Mov(q, s)
		b.Br(join)
		b.SetBlock(join)
		clean := b.Binop(ir.OpMul, ir.Ptr, k.at(0), s+1)
		y, z := b.Load(ir.Int, clean), b.Load(ir.Int, clean)
		k.put(2, k.vote(y, b.Load(ir.Int, q), z))
		return ir.NoReg
	}},
	{name: "divisor", why: RejectWalkOther, setup: func(k *isoK) ir.Reg { return k.b.ConstInt(1) }, tail: func(k *isoK, s ir.Reg) ir.Reg {
		one := k.b.ConstInt(1)
		k.put(2, k.vote(k.bin(ir.OpDiv, k.x, one), k.bin(ir.OpDiv, k.x, s), k.bin(ir.OpDiv, k.x, one)))
		return ir.NoReg
	}},
	{name: "ftoi", why: RejectWalkOther, bit: 30, setup: func(k *isoK) ir.Reg { return k.b.ConstFloat(2.5) }, tail: func(k *isoK, s ir.Reg) ir.Reg {
		y := k.b.Unop(ir.OpFToI, ir.Int, k.b.ConstFloat(2.5))
		k.put(2, k.vote(y, k.b.Unop(ir.OpFToI, ir.Int, s), y))
		return ir.NoReg
	}},
	{name: "store value", why: RejectWalkStore, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.put(2, s)
		return ir.NoReg
	}},
	{name: "store address", why: RejectWalkStore, setup: func(k *isoK) ir.Reg { return k.at(2) }, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.b.Store(s, k.x)
		return ir.NoReg
	}},
	{name: "condbr", why: RejectWalkBranch, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
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
	{name: "call argument", why: RejectWalkOther, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.b.Call(k.putFn(), ir.Void, k.at(2), s)
		return ir.NoReg
	}},
	{name: "ret", why: RejectWalkOther, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg { return s }},
	{name: "hook argument", why: RejectWalkOther, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.b.Raw(ir.Instr{Op: ir.OpRTObserve, Args: []ir.Reg{k.x, s, k.at(2)}})
		return ir.NoReg
	}},
	{name: "check2", why: RejectWalkOther, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
		k.b.Raw(ir.Instr{Op: ir.OpCheck2, Args: []ir.Reg{k.x, s}})
		return ir.NoReg
	}},
	// Taint that reaches a store only once it has gone round a loop's
	// back edge: clean on the first iteration, stored on the second.
	{name: "store round a back edge", why: RejectWalkStore, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
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

	// A shadow pointer or index struck in a low bit still loads inside
	// the mapped space: the loaded copy is outvoted.
	{name: "shadow pointer into a load", isolated: true, setup: func(k *isoK) ir.Reg { return k.at(0) }, tail: shadowLoad},
	{name: "shadow index scaled by an invariant", isolated: true, setup: indexPair, tail: scaledLoad},
	// A load the clean run never makes cannot fault in the replica,
	// however far the pointer moved.
	{name: "shadow pointer into a load the clean run never makes", bit: 30, isolated: true, setup: func(k *isoK) ir.Reg {
		return k.at(0)
	}, tail: func(k *isoK, s ir.Reg) ir.Reg {
		b := k.b
		never, join := b.NewBlock("never"), b.NewBlock("join")
		b.CondBr(k.bin(ir.OpEq, k.x, b.ConstInt(8)), never, join)
		b.SetBlock(never)
		b.Load(ir.Int, s)
		b.Br(join)
		b.SetBlock(join)
		return ir.NoReg
	}},

	// Without the clean run's load ranges the walk cannot place a
	// shifted address: the rule is off for it.
	{name: "shadow pointer, capture without load ranges", why: RejectWalkLoad, isolated: true, noRanges: true,
		setup: func(k *isoK) ir.Reg { return k.at(0) }, tail: shadowLoad},

	// The clean run's vote is split, so outvoting the struck operand
	// changes the result: the rule is off.
	{name: "split vote in the clean run", why: RejectRegisters, split: true, setup: seven, tail: func(k *isoK, s ir.Reg) ir.Reg {
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
	reject             Reject
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
	r.skipped, r.converged, r.isolate, r.reject = w.Converged, w.Converged > 0, w.Isolated, w.Reject
	return r
}

// TestCopyIsolationEdgeCases holds the copy-isolation rule to its
// cases: a strike on a register that reaches an effect (a store, a
// branch, an address the shift takes out of the mapped space or whose
// shift the walk cannot know, a divisor, a conversion, a call, a
// return, a hook, a check or two vote operands, also only round a back
// edge) never converges by isolation, one that reaches a single vote
// operand (through a chain, round a back edge, from a caller frame
// whose retDst also differs, or through a load whose shifted address
// stays mapped) does, and a clean run that cast a split vote, or a
// capture without load ranges for a load address, turns the rule off.
// A replica that does not converge notes in Work.Reject the kind of op
// its walk stopped at. On every pair of capture and replay engines the replayed replica
// equals the from-zero reference run in every field.
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
				if c.noRanges {
					capt.loads = nil
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
					if got.isolate != (c.isolated && !c.split && !c.noRanges) || got.isolate && !got.converged {
						t.Errorf("%s: converged %v, by isolation %v; want isolation %v", label, got.converged, got.isolate, c.isolated)
					}
					if at := capt.final.c.Dyn - check.c.Dyn; got.isolate && got.skipped != at {
						t.Errorf("%s: converged skipping %d instructions, want %d: not at the first check point", label, got.skipped, at)
					}
					if !got.converged && got.reject != c.why {
						t.Errorf("%s: the last check failed at %v, want %v", label, got.reject, c.why)
					}
					got.converged, got.isolate, got.skipped, got.reject = false, false, 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: replayed %+v\nwant from zero %+v", label, got, want)
					}
				}
			}
		})
	}
}

// TestCopyIsolationOpTable: every op the walk lets a tainted operand
// through unconditionally — pure ops, which taint their destination,
// and Vote3 — never makes either engine return an error, whatever its
// operands; a load, which can fault, admits one only by its offset
// (TestCopyIsolationEdgeCases); the trapping ops and every op with an
// effect reject a tainted operand.
func TestCopyIsolationOpTable(t *testing.T) {
	cls := isoClasses()
	if cls[ir.OpLoad] != isoLoad {
		t.Errorf("load: class %d, want the load class", cls[ir.OpLoad])
	}
	for _, op := range []ir.Op{ir.OpDiv, ir.OpRem, ir.OpFToI, ir.OpStore, ir.OpAlloca, ir.OpCondBr,
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
		if cls[op] == isoLoad {
			continue
		}
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
