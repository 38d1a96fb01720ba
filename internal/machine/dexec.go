package machine

import (
	"math"

	"rskip/internal/ir"
)

// Decoded-instruction execution: the per-instruction primitives the
// compiled backend falls back to away from its closure segments. Its
// block-entry checks (runBlockSlow in compiled.go) decide per block
// whether any per-instruction check could trigger inside it:
//
//   - HangError: a block runs check-free only when the remaining
//     instruction budget covers the whole block's μops, so the error
//     still fires at the identical dynamic-instruction count.
//   - Fault injection: a block runs check-free only when the armed
//     fault's region-instruction target provably lies beyond the
//     block's end.
//   - Cancellation: polled at block boundaries once the poll
//     threshold passes (cancellation latency stays bounded; its exact
//     instruction is not part of the deterministic contract).
//
// A check-free block runs through runPlain; the rare block where a
// check could trigger steps exactly through stepCareful. Both execute
// through execD, which mirrors the reference interpreter's exec
// (exec.go); the golden-counters differential sweep proves the two
// engines produce bit-identical counters, outputs and fault outcomes.

// runPlain executes from f.ip to the block's next break instruction
// with per-instruction accounting but no per-instruction checks (the
// caller's block-boundary checks proved none can trigger). It is also
// the compiled backend's mid-segment entry path: resuming inside a
// segment after careful stepping charges the remaining instructions
// one at a time, which lands on the identical counter totals that
// segment dispatch would have charged.
func (m *Machine) runPlain(f *frame, blk *dblock, inRegion bool) error {
	regionInc := uint64(0)
	if inRegion {
		regionInc = 1
	}
	internal := f.fn.Internal
	ins := blk.ins
	for {
		d := &ins[f.ip]
		f.ip++
		n := uint64(d.n)
		m.C.Dyn += n
		m.C.ops[d.op] += n
		m.C.ByTag[d.tag] += n
		m.C.Region += regionInc
		if internal {
			m.C.Internal += n
		}
		if err := m.execD(f, d); err != nil {
			return err
		}
		if d.brk {
			// Terminator, call or runtime hook: the current block ended
			// or m.fr may have changed (calls and hook recomputation
			// push frames, possibly reallocating the frame stack), so
			// the cached pointers are no longer trustworthy.
			return nil
		}
	}
}

// stepCareful executes one instruction with the seed interpreter's
// exact per-instruction semantics (hang check, cancel poll, trace,
// fault decision) over the pre-decoded stream. The caller re-enters
// block dispatch afterwards, so a run leaves careful mode as soon as
// the block-boundary conditions clear again.
func (m *Machine) stepCareful(f *frame, blk *dblock, inRegion bool) error {
	d := &blk.ins[f.ip]
	f.ip++

	n := uint64(d.n)
	m.C.Dyn += n
	m.C.ops[d.op] += n
	m.C.ByTag[d.tag] += n
	if inRegion {
		m.C.Region++
	}
	m.faultFrameFn = f.fi
	if f.fn.Internal {
		m.C.Internal += n
	}
	if m.C.Dyn > m.cfg.MaxInstrs {
		return &HangError{Limit: m.cfg.MaxInstrs}
	}
	if m.cfg.Cancel != nil && m.C.Dyn >= m.cancelAt {
		m.cancelAt = m.C.Dyn + cancelPollInterval
		if m.cancelled() {
			return &CancelError{}
		}
	}
	if m.cfg.Trace != nil {
		m.traceStep(f, d.src)
	}

	switch m.decideFault(inRegion, d.src) {
	case faultRegFile:
		// A function with no registers gives the strike nowhere to
		// land: the fault is recorded as fired but masked (equivalent
		// to hitting a dead register), instead of the seed's
		// divide-by-zero panic.
		hit := ir.NoReg
		if f.fn.NumRegs > 0 {
			hit = ir.Reg(m.fault.plan.Pick % f.fn.NumRegs)
			m.fault.firedTag = m.regTagOf(f.fi, hit)
			m.flipBit(f, hit)
		}
		m.struckDead(f.fi, f.block, f.ip-1, hit, false)
		return m.execD(f, d)
	case faultPre:
		if d.nargs > 0 {
			m.flipBit(f, d.src.Args[m.fault.plan.Pick%int(d.nargs)])
		}
		return m.execD(f, d)
	case faultPost:
		dst := d.dst
		fi, block, ip := f.fi, f.block, f.ip-1
		if err := m.execD(f, d); err != nil {
			return err
		}
		// As in the seed: f.regs still aliases the same backing array
		// even if the frame was popped or m.fr reallocated.
		m.flipBit(f, dst)
		if m.fault.plan.Kind != FaultSourceBit {
			m.struckDead(fi, block, ip, dst, true)
		}
		return nil
	case faultSkip:
		m.pl.issue(readyD(f, d), 1)
		if d.op.IsTerminator() {
			f.block = (f.block + 1) % len(f.fn.Blocks)
			f.ip = 0
		}
		return nil
	case faultGarbage:
		if d.dst != ir.NoReg {
			f.regs[d.dst] = m.garbage(f.regs[d.dst])
			f.ready[d.dst] = m.pl.issue(readyD(f, d), 1)
		}
		return nil
	case faultTrap:
		return &TrapError{Reason: "illegal instruction encoding (injected opcode fault)"}
	}
	return m.execD(f, d)
}

// readyD returns the cycle all source operands are ready.
func readyD(f *frame, d *dinstr) uint64 {
	switch d.nargs {
	case 0:
		return 0
	case 1:
		return f.ready[d.a0]
	case 2:
		r := f.ready[d.a0]
		if b := f.ready[d.a1]; b > r {
			r = b
		}
		return r
	case 3:
		r := f.ready[d.a0]
		if b := f.ready[d.a1]; b > r {
			r = b
		}
		if c := f.ready[d.a2]; c > r {
			r = c
		}
		return r
	}
	var r uint64
	for _, a := range d.src.Args {
		if f.ready[a] > r {
			r = f.ready[a]
		}
	}
	return r
}

// execD performs one pre-decoded operation: the decoded twin of exec
// in exec.go, with operands, latency and branch targets read from the
// decoded form instead of re-derived per retire. Timing-model calls
// are issued in the identical order, so cycles stay bit-identical to
// the reference interpreter.
func (m *Machine) execD(f *frame, d *dinstr) error {
	done := m.pl.issue(readyD(f, d), uint64(d.lat))

	switch d.op {
	case ir.OpConstInt:
		if d.dst != ir.NoReg {
			f.regs[d.dst] = uint64(d.imm)
			f.ready[d.dst] = done
		}
	case ir.OpConstFloat:
		if d.dst != ir.NoReg {
			f.regs[d.dst] = f2b(d.fimm)
			f.ready[d.dst] = done
		}
	case ir.OpMov:
		if d.dst != ir.NoReg {
			f.regs[d.dst] = f.regs[d.a0]
			f.ready[d.dst] = done
		}

	case ir.OpAdd:
		setD(f, d, uint64(int64(f.regs[d.a0])+int64(f.regs[d.a1])), done)
	case ir.OpSub:
		setD(f, d, uint64(int64(f.regs[d.a0])-int64(f.regs[d.a1])), done)
	case ir.OpMul:
		setD(f, d, uint64(int64(f.regs[d.a0])*int64(f.regs[d.a1])), done)
	case ir.OpDiv:
		dv := int64(f.regs[d.a1])
		if dv == 0 {
			return &TrapError{Reason: "integer divide by zero"}
		}
		setD(f, d, uint64(int64(f.regs[d.a0])/dv), done)
	case ir.OpRem:
		dv := int64(f.regs[d.a1])
		if dv == 0 {
			return &TrapError{Reason: "integer remainder by zero"}
		}
		setD(f, d, uint64(int64(f.regs[d.a0])%dv), done)
	case ir.OpAnd:
		setD(f, d, f.regs[d.a0]&f.regs[d.a1], done)
	case ir.OpOr:
		setD(f, d, f.regs[d.a0]|f.regs[d.a1], done)
	case ir.OpXor:
		setD(f, d, f.regs[d.a0]^f.regs[d.a1], done)
	case ir.OpShl:
		setD(f, d, f.regs[d.a0]<<(f.regs[d.a1]&63), done)
	case ir.OpShr:
		setD(f, d, f.regs[d.a0]>>(f.regs[d.a1]&63), done)
	case ir.OpNeg:
		setD(f, d, uint64(-int64(f.regs[d.a0])), done)

	case ir.OpFAdd:
		setD(f, d, f2b(b2f(f.regs[d.a0])+b2f(f.regs[d.a1])), done)
	case ir.OpFSub:
		setD(f, d, f2b(b2f(f.regs[d.a0])-b2f(f.regs[d.a1])), done)
	case ir.OpFMul:
		setD(f, d, f2b(b2f(f.regs[d.a0])*b2f(f.regs[d.a1])), done)
	case ir.OpFDiv:
		setD(f, d, f2b(b2f(f.regs[d.a0])/b2f(f.regs[d.a1])), done)
	case ir.OpFNeg:
		setD(f, d, f2b(-b2f(f.regs[d.a0])), done)

	case ir.OpEq:
		setD(f, d, boolBits(int64(f.regs[d.a0]) == int64(f.regs[d.a1])), done)
	case ir.OpNe:
		setD(f, d, boolBits(int64(f.regs[d.a0]) != int64(f.regs[d.a1])), done)
	case ir.OpLt:
		setD(f, d, boolBits(int64(f.regs[d.a0]) < int64(f.regs[d.a1])), done)
	case ir.OpLe:
		setD(f, d, boolBits(int64(f.regs[d.a0]) <= int64(f.regs[d.a1])), done)
	case ir.OpGt:
		setD(f, d, boolBits(int64(f.regs[d.a0]) > int64(f.regs[d.a1])), done)
	case ir.OpGe:
		setD(f, d, boolBits(int64(f.regs[d.a0]) >= int64(f.regs[d.a1])), done)
	case ir.OpFEq:
		setD(f, d, boolBits(b2f(f.regs[d.a0]) == b2f(f.regs[d.a1])), done)
	case ir.OpFNe:
		setD(f, d, boolBits(b2f(f.regs[d.a0]) != b2f(f.regs[d.a1])), done)
	case ir.OpFLt:
		setD(f, d, boolBits(b2f(f.regs[d.a0]) < b2f(f.regs[d.a1])), done)
	case ir.OpFLe:
		setD(f, d, boolBits(b2f(f.regs[d.a0]) <= b2f(f.regs[d.a1])), done)
	case ir.OpFGt:
		setD(f, d, boolBits(b2f(f.regs[d.a0]) > b2f(f.regs[d.a1])), done)
	case ir.OpFGe:
		setD(f, d, boolBits(b2f(f.regs[d.a0]) >= b2f(f.regs[d.a1])), done)

	case ir.OpIToF:
		setD(f, d, f2b(float64(int64(f.regs[d.a0]))), done)
	case ir.OpFToI:
		v := b2f(f.regs[d.a0])
		if math.IsNaN(v) || v > math.MaxInt64 || v < math.MinInt64 {
			return &TrapError{Reason: "float to int conversion out of range"}
		}
		setD(f, d, uint64(int64(v)), done)

	case ir.OpLoad:
		addr := int64(f.regs[d.a0])
		var w uint64
		if m.overrideActive && addr == m.overrideAddr {
			w = m.overrideVal
		} else {
			var err error
			w, err = m.Mem.LoadWord(addr)
			if err != nil {
				return err
			}
		}
		setD(f, d, w, done)
	case ir.OpStore:
		if err := m.Mem.StoreWord(int64(f.regs[d.a0]), f.regs[d.a1]); err != nil {
			return err
		}
	case ir.OpAlloca:
		base, err := m.Mem.pushStack(d.imm)
		if err != nil {
			return err
		}
		setD(f, d, uint64(base), done)

	case ir.OpSqrt:
		setD(f, d, f2b(math.Sqrt(b2f(f.regs[d.a0]))), done)
	case ir.OpExp:
		setD(f, d, f2b(math.Exp(b2f(f.regs[d.a0]))), done)
	case ir.OpLog:
		setD(f, d, f2b(math.Log(b2f(f.regs[d.a0]))), done)
	case ir.OpFAbs:
		setD(f, d, f2b(math.Abs(b2f(f.regs[d.a0]))), done)
	case ir.OpPow:
		setD(f, d, f2b(math.Pow(b2f(f.regs[d.a0]), b2f(f.regs[d.a1]))), done)
	case ir.OpFloor:
		setD(f, d, f2b(math.Floor(b2f(f.regs[d.a0]))), done)
	case ir.OpFMin:
		setD(f, d, f2b(math.Min(b2f(f.regs[d.a0]), b2f(f.regs[d.a1]))), done)
	case ir.OpFMax:
		setD(f, d, f2b(math.Max(b2f(f.regs[d.a0]), b2f(f.regs[d.a1]))), done)

	case ir.OpBr:
		f.block = int(d.b0)
		f.ip = 0
	case ir.OpCondBr:
		if f.regs[d.a0] != 0 {
			f.block = int(d.b0)
		} else {
			f.block = int(d.b1)
		}
		f.ip = 0
	case ir.OpRet:
		var ret uint64
		if d.nargs == 1 {
			ret = f.regs[d.a0]
		}
		retDst := f.retDst
		if f.savedArgs != nil {
			m.cfg.CallTracer(f.savedArgs, ret)
		}
		m.popFrame()
		m.lastRet = ret
		if retDst != ir.NoReg && len(m.fr) > 0 {
			caller := &m.fr[len(m.fr)-1]
			caller.regs[retDst] = ret
			caller.ready[retDst] = done
		}

	case ir.OpCall:
		srcArgs := d.src.Args
		args := make([]uint64, len(srcArgs))
		for i, a := range srcArgs {
			args[i] = f.regs[a]
		}
		return m.pushFrame(int(d.callee), args, d.dst)

	case ir.OpCheck2:
		if f.regs[d.a0] != f.regs[d.a1] {
			return &DetectError{Func: f.fn.Name}
		}
	case ir.OpVote3:
		a, b, c := f.regs[d.a0], f.regs[d.a1], f.regs[d.a2]
		maj := a
		switch {
		case a == b || a == c:
			maj = a
		case b == c:
			maj = b
		}
		setD(f, d, maj, done)

	case ir.OpRTLoopEnter:
		if m.cfg.Hooks != nil {
			srcArgs := d.src.Args
			inv := make([]uint64, len(srcArgs))
			for i, a := range srcArgs {
				inv[i] = f.regs[a]
			}
			m.hookOp = d.op
			return m.cfg.Hooks.LoopEnter(m, int(d.imm), inv)
		}
	case ir.OpRTObserve:
		if m.cfg.Hooks != nil {
			m.hookOp = d.op
			return m.cfg.Hooks.Observe(m, int(d.imm),
				int64(f.regs[d.a0]), f.regs[d.a1], int64(f.regs[d.a2]))
		}
	case ir.OpRTLoopExit:
		if m.cfg.Hooks != nil {
			m.hookOp = d.op
			return m.cfg.Hooks.LoopExit(m, int(d.imm))
		}

	default:
		return &TrapError{Reason: "illegal instruction " + d.op.String()}
	}
	return nil
}

// setD writes a destination register and its ready cycle.
func setD(f *frame, d *dinstr, bits uint64, done uint64) {
	if d.dst != ir.NoReg {
		f.regs[d.dst] = bits
		f.ready[d.dst] = done
	}
}
