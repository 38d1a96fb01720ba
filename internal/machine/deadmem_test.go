package machine

import (
	"fmt"
	"testing"

	"rskip/internal/ir"
)

// deadHooks stores every observed value at its address after loading
// the word there first, as rtm's manager loads the pre-store value a
// recompute may need.
type deadHooks struct{ isoHooks }

func (h *deadHooks) Observe(m *Machine, id int, iter int64, value uint64, addr int64) error {
	if _, err := m.Mem.LoadWord(addr); err != nil {
		return err
	}
	return h.isoHooks.Observe(m, id, iter, value, addr)
}

// deadOut is the words a dead-memory kernel's out array spans: the
// main loop's isoN, then the cases' words from out + isoN on.
const deadOut = isoN + 80

// deadCase is one hand-built dead-memory case: kernel(out, n) runs
// setup, which the strike hits, then a loop storing 7 to out[i] for
// i < n, where every check point stands, then tail. The strike lands on
// the first instruction of function fn with opcode op, as a result-bit
// flip of bit, or skips it.
type deadCase struct {
	name        string
	op          ir.Op
	fn          int
	skip        bool
	bit         uint
	setup, tail func(k *isoK)
	// dead > 0: replicas converge with that many memory words still
	// differing; otherwise they never converge, their last check
	// failing for reject. sdc: the strike changes the output.
	dead   int
	reject Reject
	sdc    bool
}

// struck emits the instruction the strike hits: v xor 0.
func struck(k *isoK, v ir.Reg) ir.Reg { return k.bin(ir.OpXor, v, k.b.ConstInt(0)) }

// putStruck stores a struck 100 at out + n.
func putStruck(k *isoK) { k.put(0, struck(k, k.b.ConstInt(100))) }

// fill stores a struck 100 at cnt words from out + n + 8 on.
func fill(cnt int64) func(k *isoK) {
	return func(k *isoK) {
		w := struck(k, k.b.ConstInt(100))
		base := k.at(8)
		k.loop(k.b.ConstInt(cnt), func(j ir.Reg) {
			k.b.Store(k.b.Binop(ir.OpAdd, ir.Ptr, base, j), w)
		})
	}
}

var deadCases = []deadCase{
	{name: "word never touched again", op: ir.OpXor, bit: 3, setup: putStruck, dead: 1, sdc: true},
	{name: "word the clean remainder rewrites", op: ir.OpXor, bit: 3, setup: putStruck,
		tail: func(k *isoK) { k.put(0, k.b.ConstInt(9)) }, dead: 1},
	{name: "word read later", op: ir.OpXor, bit: 3, setup: putStruck,
		tail: func(k *isoK) { k.put(1, k.b.Load(ir.Int, k.at(0))) }, reject: RejectMemoryLive, sdc: true},
	{name: "word read by a hook's pre-store load", op: ir.OpXor, bit: 3, setup: putStruck,
		tail: func(k *isoK) {
			k.b.Raw(ir.Instr{Op: ir.OpRTObserve, Args: []ir.Reg{k.b.ConstInt(0), k.x, k.at(0)}})
		}, reject: RejectMemoryLive},
	// The struck address lands 2^25 words on, past the dense arena: the
	// replica leaves out + n zero and writes a sparse page instead.
	{name: "scribble into a sparse page", op: ir.OpXor, bit: 25, setup: func(k *isoK) {
		k.b.Store(k.b.Binop(ir.OpXor, ir.Ptr, k.at(0), k.b.ConstInt(0)), k.b.ConstInt(100))
	}, dead: 2, sdc: true},
	{name: "popped stack word an alloca reads", op: ir.OpXor, fn: 1, bit: 3, setup: func(k *isoK) {
		b := ir.NewBuilder("push", nil, ir.Void)
		b.Store(b.Alloca(1), b.Binop(ir.OpXor, ir.Int, b.ConstInt(100), b.ConstInt(0)))
		b.Ret(ir.NoReg)
		k.funcs = append(k.funcs, b.F)
		k.b.Call(len(k.funcs), ir.Void)
	}, tail: func(k *isoK) {
		b := ir.NewBuilder("pop", []ir.Param{{Name: "p", Type: ir.Ptr}}, ir.Void)
		b.Store(0, b.Load(ir.Int, b.Alloca(1)))
		b.Ret(ir.NoReg)
		k.funcs = append(k.funcs, b.F)
		k.b.Call(len(k.funcs), ir.Void, k.at(1))
	}, reject: RejectMemoryLive, sdc: true},
	{name: "stack pointer", op: ir.OpAlloca, skip: true, setup: func(k *isoK) { k.b.Alloca(2) },
		reject: RejectMemoryOther},
	{name: "as many words as the cap", op: ir.OpXor, bit: 3, setup: fill(deadWordCap), dead: deadWordCap, sdc: true},
	{name: "one word over the cap", op: ir.OpXor, bit: 3, setup: fill(deadWordCap + 1), reject: RejectMemoryOther, sdc: true},
}

func (c *deadCase) module() *ir.Module {
	b := ir.NewBuilder("kernel", []ir.Param{{Name: "out", Type: ir.Ptr}, {Name: "n", Type: ir.Int}}, ir.Void)
	k := &isoK{b: b, out: 0, n: 1}
	k.x = b.ConstInt(7)
	c.setup(k)
	k.loop(k.n, func(i ir.Reg) { b.Store(b.Binop(ir.OpAdd, ir.Ptr, k.out, i), k.x) })
	if c.tail != nil {
		c.tail(k)
	}
	b.Ret(ir.NoReg)
	return &ir.Module{Name: c.name, Funcs: append([]*ir.Func{b.F}, k.funcs...)}
}

// deadRun is one run of a dead-memory kernel: every field of its
// outcome, its memory and its Work.
type deadRun struct {
	deadOutcome
	mem  memState
	work Work
}

type deadOutcome struct {
	res   RunResult
	err   string
	fired bool
	tag   ir.InstrTag
	op    ir.Op
	fn    int
}

// runDead runs mod with cfg — resumed from the latest snapshot of
// cfg.Converge before the fault, if any — and reads its outcome.
func runDead(mod *ir.Module, cfg Config) deadRun {
	cfg.Hooks = &deadHooks{}
	m := New(mod, cfg)
	defer m.Release()
	out := m.Mem.Alloc(deadOut)
	var res RunResult
	var err error
	if snap := cfg.Converge.Latest(cfg.Fault.Target, cfg.MaxInstrs); snap != nil {
		res, err = m.Resume(snap)
	} else {
		res, err = m.Run(0, []uint64{uint64(out), isoN})
	}
	r := deadRun{deadOutcome{res: res, err: fmt.Sprint(err), fired: m.FaultFired()}, m.Mem.snapshot(), m.Work()}
	r.tag, r.op, r.fn = m.FaultSite()
	return r
}

// sameMem reports whether two saved memories hold the same contents.
func sameMem(a, b *memState) bool {
	m, _ := newPooledMemory(a.size)
	defer releaseMemory(m)
	m.restore(a)
	return m.sameAs(b)
}

// TestDeadMemoryEdgeCases holds dead-memory convergence to its cases:
// a replica whose memory differs from the clean run's only in words
// the clean remainder never reads converges — whether the remainder
// never touches them again (the SDC stays in the output), rewrites
// them (the output is the clean one) or they sit in a sparse page —
// and up to deadWordCap of them; a word the clean remainder reads,
// through a load, a runtime hook's pre-store load or a later frame's
// alloca, rejects, as do differing segment pointers and one word over
// the cap. On every pair of capture and replay engines the replayed
// replica equals the from-zero reference run in every field and in the
// whole memory.
func TestDeadMemoryEdgeCases(t *testing.T) {
	for _, c := range deadCases {
		t.Run(c.name, func(t *testing.T) {
			mod := c.module()
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
				ccfg.Backend, ccfg.Capture, ccfg.Hooks = capBe, capt, &deadHooks{}
				cm := New(mod, ccfg)
				out := cm.Mem.Alloc(deadOut)
				clean, err := cm.Run(0, []uint64{uint64(out), isoN})
				cm.Release()
				if err != nil {
					t.Fatal(err)
				}
				rcfg := base
				rcfg.Untimed, rcfg.MaxInstrs, rcfg.Backend = true, 4*clean.Instrs, BackendReference
				var want deadRun
				for target := uint64(0); ; target++ {
					if target == clean.Region {
						t.Fatalf("no %v in function %d to strike", c.op, c.fn)
					}
					rcfg.Fault = &FaultPlan{Kind: FaultResultBit, Target: target, Bit: c.bit}
					if c.skip {
						rcfg.Fault.Kind, rcfg.Fault.Width = FaultSkip, 1
					}
					if want = runDead(mod, rcfg); want.fired && want.op == c.op && want.fn == c.fn {
						break
					}
				}
				if sdc := want.err != "<nil>" || !sameMem(&want.mem, &capt.final.mem); sdc != c.sdc || want.err != "<nil>" {
					t.Fatalf("capture on %v: the strike changes the outcome: %v (%s), want %v", capBe, sdc, want.err, c.sdc)
				}
				rcfg.Converge = capt
				for _, be := range allBackends {
					rcfg.Backend = be
					got := runDead(mod, rcfg)
					label := fmt.Sprintf("capture %v, replay %v", capBe, be)
					w := got.work
					if converged := w.Converged > 0; converged != (c.dead > 0) || w.DeadWords != c.dead || !converged && w.Reject != c.reject {
						t.Errorf("%s: converged %v with %d dead words, last reject %v; want %d dead words, reject %v",
							label, converged, w.DeadWords, w.Reject, c.dead, c.reject)
					}
					if !sameMem(&got.mem, &want.mem) {
						t.Errorf("%s: replayed memory differs from the from-zero run's", label)
					}
					if got.deadOutcome != want.deadOutcome {
						t.Errorf("%s: replayed %+v\nwant from zero %+v", label, got.deadOutcome, want.deadOutcome)
					}
				}
			}
		})
	}
}
