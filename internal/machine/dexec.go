package machine

import "rskip/internal/ir"

// Per-instruction execution for the compiled backend: the paths it
// takes away from whole-segment dispatch. Its block-entry checks
// (runBlockSlow in compiled.go) decide per block whether any
// per-instruction check could trigger inside it:
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
// check could trigger steps exactly through stepCareful. Both charge
// one instruction at a time from the decoded stream and execute it
// through the same compileIns closure a segment runs (cblock.ops), so
// the compiled engine has one implementation of every opcode; the
// golden-counters differential sweep proves it bit-identical to the
// reference interpreter (exec.go) on every path.

// runPlain executes from f.ip to the block's next break instruction
// with per-instruction accounting but no per-instruction checks (the
// caller's block-boundary checks proved none can trigger). It is also
// the compiled backend's mid-segment entry path: resuming inside a
// segment after careful stepping charges the remaining instructions
// one at a time, which lands on the identical counter totals that
// segment dispatch would have charged. No segment starts at f.ip, so
// the frame's nseg hint is already -1.
func (m *Machine) runPlain(f *frame, inRegion bool) error {
	regionInc := uint64(0)
	if inRegion {
		regionInc = 1
	}
	internal := f.fn.Internal
	ins := m.code.fns[f.fi].blocks[f.block].ins
	ops := m.ccode.fns[f.fi].blocks[f.block].ops
	for {
		d := &ins[f.ip]
		op := ops[f.ip]
		f.ip++
		n := uint64(d.n)
		m.C.Dyn += n
		m.C.ops[d.op] += n
		m.C.ByTag[d.tag] += n
		m.C.Region += regionInc
		if internal {
			m.C.Internal += n
		}
		if err := op(m, f); err != nil {
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
func (m *Machine) stepCareful(f *frame, inRegion bool) error {
	d := &m.code.fns[f.fi].blocks[f.block].ins[f.ip]
	op := m.ccode.fns[f.fi].blocks[f.block].ops[f.ip]
	f.ip++
	// The step moves the frame off the segment its hint names; the
	// branch, call and hook closures set a fresh one.
	f.nseg = -1

	n := uint64(d.n)
	m.C.Dyn += n
	m.C.ops[d.op] += n
	m.C.ByTag[d.tag] += n
	if inRegion {
		m.C.Region++
		if m.cfg.RegionTrace != nil {
			m.cfg.RegionTrace.note(m.regionOwnerNow(), ClassOf(d.op))
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
		return op(m, f)
	case faultPre:
		if d.nargs > 0 {
			m.flipBit(f, d.src.Args[m.fault.plan.Pick%int(d.nargs)])
		}
		return op(m, f)
	case faultPost:
		dst := d.dst
		fi, block, ip := f.fi, f.block, f.ip-1
		if err := op(m, f); err != nil {
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
		if !m.pl.off {
			m.pl.issue(readyOf(f, d.src), 1)
		}
		if d.op.IsTerminator() {
			f.block = (f.block + 1) % len(f.fn.Blocks)
			f.ip = 0
		}
		return nil
	case faultGarbage:
		if d.dst != ir.NoReg {
			f.regs[d.dst] = m.garbage(f.regs[d.dst])
			if !m.pl.off {
				f.ready[d.dst] = m.pl.issue(readyOf(f, d.src), 1)
			}
		}
		return nil
	case faultTrap:
		return &TrapError{Reason: "illegal instruction encoding (injected opcode fault)"}
	}
	return op(m, f)
}
