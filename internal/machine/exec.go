package machine

import (
	"fmt"
	"math"

	"rskip/internal/ir"
)

func f2b(v float64) uint64 { return math.Float64bits(v) }
func b2f(b uint64) float64 { return math.Float64frombits(b) }
func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// step executes one IR instruction of the top frame.
func (m *Machine) step() error {
	f := &m.fr[len(m.fr)-1]
	in := &f.fn.Blocks[f.block].Instrs[f.ip]
	f.ip++

	// Accounting. Region instructions are counted against the block
	// the instruction belongs to, before any branch retargets f.block.
	n := uops(in.Op)
	m.C.Dyn += n
	m.C.ops[in.Op] += n
	m.C.ByTag[in.Tag] += n
	inRegion := m.inRegionNow(f)
	if inRegion {
		m.C.Region++
		if m.cfg.RegionTrace != nil {
			m.cfg.RegionTrace.note(m.regionOwnerNow(), ClassOf(in.Op))
		}
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
		m.traceStep(f, in)
	}

	// Fault injection: the campaign arms a plan that fires at a chosen
	// in-region dynamic instruction.
	switch m.decideFault(inRegion, in) {
	case faultRegFile:
		// A function with no registers (a bare-return helper reached
		// from a region call site) gives the strike nowhere to land:
		// record the fault as fired but masked, like a hit on a dead
		// register, instead of panicking on Pick % 0.
		hit := ir.NoReg
		if f.fn.NumRegs > 0 {
			hit = ir.Reg(m.fault.plan.Pick % f.fn.NumRegs)
			m.fault.firedTag = m.regTagOf(f.fi, hit)
			m.flipBit(f, hit)
		}
		m.struckDead(f.fi, f.block, f.ip-1, hit, false)
		return m.exec(f, in)
	case faultPre:
		if len(in.Args) > 0 {
			m.flipBit(f, in.Args[m.fault.plan.Pick%len(in.Args)])
		}
		return m.exec(f, in)
	case faultPost:
		dst := in.Dst
		fi, block, ip := f.fi, f.block, f.ip-1
		if err := m.exec(f, in); err != nil {
			return err
		}
		// The frame may have been popped (OpRet) or m.fr reallocated
		// (OpCall); f.regs still aliases the same backing array, so the
		// flip lands on the intended architectural register.
		m.flipBit(f, dst)
		if m.fault.plan.Kind != FaultSourceBit {
			m.struckDead(fi, block, ip, dst, true)
		}
		return nil
	case faultSkip:
		if !m.pl.off {
			m.pl.issue(readyOf(f, in), 1)
		}
		if in.Op.IsTerminator() {
			// A skipped terminator falls through to the next block.
			f.block = (f.block + 1) % len(f.fn.Blocks)
			f.ip = 0
		}
		return nil
	case faultGarbage:
		if in.Dst != ir.NoReg {
			f.regs[in.Dst] = m.garbage(f.regs[in.Dst])
			if !m.pl.off {
				f.ready[in.Dst] = m.pl.issue(readyOf(f, in), 1)
			}
		}
		return nil
	case faultTrap:
		return &TrapError{Reason: "illegal instruction encoding (injected opcode fault)"}
	}

	return m.exec(f, in)
}

// readyOf returns the cycle all source operands are ready.
func readyOf(f *frame, in *ir.Instr) uint64 {
	var r uint64
	for _, a := range in.Args {
		if f.ready[a] > r {
			r = f.ready[a]
		}
	}
	return r
}

// exec updates the timing model, performs the operation, and writes
// results. An untimed run skips the timing model and touches no ready
// cycle.
func (m *Machine) exec(f *frame, in *ir.Instr) error {
	timed := !m.pl.off
	argI := func(i int) int64 { return int64(f.regs[in.Args[i]]) }
	argF := func(i int) float64 { return b2f(f.regs[in.Args[i]]) }
	setDst := func(bits uint64, done uint64) {
		if in.Dst != ir.NoReg {
			f.regs[in.Dst] = bits
			if timed {
				f.ready[in.Dst] = done
			}
		}
	}
	var done uint64
	if timed {
		done = m.pl.issue(readyOf(f, in), latency(in.Op))
	}

	switch in.Op {
	case ir.OpConstInt:
		setDst(uint64(in.Imm), done)
	case ir.OpConstFloat:
		setDst(f2b(in.FImm), done)
	case ir.OpMov:
		setDst(f.regs[in.Args[0]], done)

	case ir.OpAdd:
		setDst(uint64(argI(0)+argI(1)), done)
	case ir.OpSub:
		setDst(uint64(argI(0)-argI(1)), done)
	case ir.OpMul:
		setDst(uint64(argI(0)*argI(1)), done)
	case ir.OpDiv:
		d := argI(1)
		if d == 0 {
			return &TrapError{Reason: "integer divide by zero"}
		}
		setDst(uint64(argI(0)/d), done)
	case ir.OpRem:
		d := argI(1)
		if d == 0 {
			return &TrapError{Reason: "integer remainder by zero"}
		}
		setDst(uint64(argI(0)%d), done)
	case ir.OpAnd:
		setDst(f.regs[in.Args[0]]&f.regs[in.Args[1]], done)
	case ir.OpOr:
		setDst(f.regs[in.Args[0]]|f.regs[in.Args[1]], done)
	case ir.OpXor:
		setDst(f.regs[in.Args[0]]^f.regs[in.Args[1]], done)
	case ir.OpShl:
		setDst(uint64(argI(0))<<(uint64(argI(1))&63), done)
	case ir.OpShr:
		setDst(uint64(argI(0))>>(uint64(argI(1))&63), done)
	case ir.OpNeg:
		setDst(uint64(-argI(0)), done)

	case ir.OpFAdd:
		setDst(f2b(argF(0)+argF(1)), done)
	case ir.OpFSub:
		setDst(f2b(argF(0)-argF(1)), done)
	case ir.OpFMul:
		setDst(f2b(argF(0)*argF(1)), done)
	case ir.OpFDiv:
		setDst(f2b(argF(0)/argF(1)), done)
	case ir.OpFNeg:
		setDst(f2b(-argF(0)), done)

	case ir.OpEq:
		setDst(boolBits(argI(0) == argI(1)), done)
	case ir.OpNe:
		setDst(boolBits(argI(0) != argI(1)), done)
	case ir.OpLt:
		setDst(boolBits(argI(0) < argI(1)), done)
	case ir.OpLe:
		setDst(boolBits(argI(0) <= argI(1)), done)
	case ir.OpGt:
		setDst(boolBits(argI(0) > argI(1)), done)
	case ir.OpGe:
		setDst(boolBits(argI(0) >= argI(1)), done)
	case ir.OpFEq:
		setDst(boolBits(argF(0) == argF(1)), done)
	case ir.OpFNe:
		setDst(boolBits(argF(0) != argF(1)), done)
	case ir.OpFLt:
		setDst(boolBits(argF(0) < argF(1)), done)
	case ir.OpFLe:
		setDst(boolBits(argF(0) <= argF(1)), done)
	case ir.OpFGt:
		setDst(boolBits(argF(0) > argF(1)), done)
	case ir.OpFGe:
		setDst(boolBits(argF(0) >= argF(1)), done)

	case ir.OpIToF:
		setDst(f2b(float64(argI(0))), done)
	case ir.OpFToI:
		v := argF(0)
		if math.IsNaN(v) || v > math.MaxInt64 || v < math.MinInt64 {
			return &TrapError{Reason: "float to int conversion out of range"}
		}
		setDst(uint64(int64(v)), done)

	case ir.OpLoad:
		addr := argI(0)
		if m.capt != nil {
			m.capt.noteLoad(m.code.fns[f.fi].blocks[f.block].ins[f.ip-1].load, addr)
		}
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
		setDst(w, done)
	case ir.OpStore:
		if err := m.Mem.StoreWord(argI(0), f.regs[in.Args[1]]); err != nil {
			return err
		}
	case ir.OpAlloca:
		base, err := m.Mem.pushStack(in.Imm)
		if err != nil {
			return err
		}
		setDst(uint64(base), done)

	case ir.OpSqrt:
		setDst(f2b(math.Sqrt(argF(0))), done)
	case ir.OpExp:
		setDst(f2b(math.Exp(argF(0))), done)
	case ir.OpLog:
		setDst(f2b(math.Log(argF(0))), done)
	case ir.OpFAbs:
		setDst(f2b(math.Abs(argF(0))), done)
	case ir.OpPow:
		setDst(f2b(math.Pow(argF(0), argF(1))), done)
	case ir.OpFloor:
		setDst(f2b(math.Floor(argF(0))), done)
	case ir.OpFMin:
		setDst(f2b(math.Min(argF(0), argF(1))), done)
	case ir.OpFMax:
		setDst(f2b(math.Max(argF(0), argF(1))), done)

	case ir.OpBr:
		f.block = in.Blocks[0]
		f.ip = 0
	case ir.OpCondBr:
		if f.regs[in.Args[0]] != 0 {
			f.block = in.Blocks[0]
		} else {
			f.block = in.Blocks[1]
		}
		f.ip = 0
	case ir.OpRet:
		var ret uint64
		if len(in.Args) == 1 {
			ret = f.regs[in.Args[0]]
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
			if timed {
				caller.ready[retDst] = done
			}
		}

	case ir.OpCall:
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = f.regs[a]
		}
		return m.pushFrame(in.Callee, args, in.Dst)

	case ir.OpCheck2:
		if f.regs[in.Args[0]] != f.regs[in.Args[1]] {
			return &DetectError{Func: f.fn.Name}
		}
	case ir.OpVote3:
		a, b, c := f.regs[in.Args[0]], f.regs[in.Args[1]], f.regs[in.Args[2]]
		if a == b && b == c {
			setDst(a, done)
			break
		}
		// A vote without a destination compiles to an issue-only
		// closure, so neither engine counts it.
		if in.Dst != ir.NoReg {
			m.splitVotes++
		}
		if a != b && a != c && b == c {
			a = b
		}
		setDst(a, done)

	case ir.OpRTLoopEnter:
		if m.cfg.Hooks != nil {
			inv := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				inv[i] = f.regs[a]
			}
			m.hookOp = in.Op
			return m.cfg.Hooks.LoopEnter(m, int(in.Imm), inv)
		}
	case ir.OpRTObserve:
		if m.cfg.Hooks != nil {
			m.hookOp = in.Op
			return m.cfg.Hooks.Observe(m, int(in.Imm),
				int64(f.regs[in.Args[0]]), f.regs[in.Args[1]], int64(f.regs[in.Args[2]]))
		}
	case ir.OpRTLoopExit:
		if m.cfg.Hooks != nil {
			m.hookOp = in.Op
			return m.cfg.Hooks.LoopExit(m, int(in.Imm))
		}

	default:
		return &TrapError{Reason: "illegal instruction " + in.Op.String()}
	}
	return nil
}

// traceStep emits one trace line: function, block, opcode, operand
// values (pre-execution) — enough to replay a bug by eye.
func (m *Machine) traceStep(f *frame, in *ir.Instr) {
	limit := m.cfg.TraceLimit
	if limit == 0 {
		limit = 10000
	}
	if m.traced >= limit {
		if m.traced == limit {
			fmt.Fprintf(m.cfg.Trace, "... trace truncated at %d instructions\n", limit)
			m.traced++
		}
		return
	}
	m.traced++
	fmt.Fprintf(m.cfg.Trace, "%s b%d#%d %s", f.fn.Name, f.block, f.ip-1, in.Op)
	if in.Op.HasDst() && in.Dst != ir.NoReg {
		fmt.Fprintf(m.cfg.Trace, " %v<-", in.Dst)
	}
	for _, a := range in.Args {
		if f.fn.TypeOf(a) == ir.Float {
			fmt.Fprintf(m.cfg.Trace, " %v=%g", a, b2f(f.regs[a]))
		} else {
			fmt.Fprintf(m.cfg.Trace, " %v=%d", a, int64(f.regs[a]))
		}
	}
	if in.Tag != ir.TagNone {
		fmt.Fprintf(m.cfg.Trace, " ;%s", in.Tag)
	}
	fmt.Fprintln(m.cfg.Trace)
}
