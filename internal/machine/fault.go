package machine

import (
	"fmt"

	"rskip/internal/ir"
)

// FaultKind selects where in the simulated core a single event upset
// lands. The campaign mixes the kinds so the residual vulnerabilities
// the paper attributes to software-only schemes (opcode-field flips,
// post-validation register strikes) occur at realistic rates.
type FaultKind uint8

// Fault kinds.
const (
	// FaultResultBit flips one bit of the target instruction's result
	// register right after it executes (a strike on a functional unit
	// output or the register file write).
	FaultResultBit FaultKind = iota
	// FaultSourceBit flips one bit of a source register right before
	// the instruction executes (a strike on an operand that may have
	// already been validated — SWIFT-R's "examined register before its
	// actual usage" residual case).
	FaultSourceBit
	// FaultOpcode flips a bit in the instruction's opcode field. The
	// machine models the three representative corruptions: the
	// instruction becomes a no-op, writes a corrupted result, or turns
	// into an illegal encoding that traps.
	FaultOpcode
	// FaultRegFile flips one bit of a uniformly chosen architectural
	// register of the executing frame — the dominant strike class in
	// gem5-style register-file injection. Most registers are dead or
	// stale at any instant, which is where the high masking rates of
	// §7.2 (UNSAFE ≈77% Correct) come from.
	FaultRegFile
	// FaultSkip suppresses the target instruction entirely — the
	// instruction-skip attack model of Moro et al. (a glitched fetch or
	// corrupted program counter). With Width > 1 it suppresses that many
	// consecutive dynamic instructions (multi-skip), continuing across
	// block and region boundaries like a real glitch burst would.
	FaultSkip
	// FaultMultiBit flips Width adjacent bits of the struck register (a
	// multi-bit upset from one particle hitting neighboring cells). It
	// lands like FaultResultBit — on the destination right after the
	// instruction executes, falling back to a source strike for
	// dst-less instructions.
	FaultMultiBit

	// NumFaultKinds bounds dense per-kind tables.
	NumFaultKinds = int(FaultMultiBit) + 1
)

var faultKindNames = [NumFaultKinds]string{
	FaultResultBit: "result-bit",
	FaultSourceBit: "source-bit",
	FaultOpcode:    "opcode",
	FaultRegFile:   "regfile",
	FaultSkip:      "skip",
	FaultMultiBit:  "multibit",
}

func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) && faultKindNames[k] != "" {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultPlan describes one single-event upset to inject.
type FaultPlan struct {
	Kind FaultKind
	// Target fires the fault at the Target-th dynamic IR instruction
	// executed inside the detected-loop region (0-based).
	Target uint64
	// Bit selects the flipped bit (0..63).
	Bit uint
	// Pick selects among multiple source operands.
	Pick int
	// Width widens the event: consecutive instructions suppressed for
	// FaultSkip, adjacent bits flipped for FaultMultiBit. 0 and 1 both
	// mean a single-instruction / single-bit event; other kinds ignore
	// it.
	Width uint
}

type faultState struct {
	plan     FaultPlan
	armed    bool
	fired    bool
	firedTag ir.InstrTag
	firedOp  ir.Op
	firedFn  int
	// skipsLeft counts the remaining instructions of a multi-skip burst
	// after the first one fired; the burst continues unconditionally
	// (across blocks, frames and region boundaries).
	skipsLeft uint
}

// FaultFired reports whether the armed fault was injected during the
// run; faults that never fire (the region finished early) count as
// masked.
func (m *Machine) FaultFired() bool { return m.fault.fired }

// FaultSite reports the protection tag, opcode and function index of
// the fault's landing site. Campaigns use it to attribute outcomes:
// hits on TagValue instructions/registers, or anywhere inside an
// internal (unprotected value-slice) function, are covered by fuzzy
// validation and are false-negative candidates; everything else is
// covered by conventional duplication.
func (m *Machine) FaultSite() (ir.InstrTag, ir.Op, int) {
	return m.fault.firedTag, m.fault.firedOp, m.fault.firedFn
}

type faultAction uint8

const (
	faultNone    faultAction = iota
	faultPre                 // flip a source bit, then execute normally
	faultPost                // execute, then flip the destination bit
	faultSkip                // the instruction becomes a no-op
	faultGarbage             // destination receives a corrupted value
	faultTrap                // illegal encoding: trap
	faultRegFile             // flip a bit of a random architectural register
)

// decideFault checks whether the armed fault fires on this dynamic
// instruction and, if so, how it manifests. Must be called after the
// region counter is updated for this instruction.
func (m *Machine) decideFault(inRegion bool, in *ir.Instr) faultAction {
	// An in-flight multi-skip burst suppresses instructions
	// unconditionally until it drains — the glitch does not respect
	// region or block boundaries.
	if m.fault.skipsLeft > 0 {
		m.fault.skipsLeft--
		return faultSkip
	}
	if !m.fault.armed || m.fault.fired || !inRegion {
		return faultNone
	}
	if m.C.Region-1 != m.fault.plan.Target {
		return faultNone
	}
	m.fault.fired = true
	m.fault.firedTag = in.Tag
	m.fault.firedOp = in.Op
	m.fault.firedFn = m.faultFrameFn
	if m.conv.c != nil {
		// Convergence checks start at the first snapshot from here on.
		m.conv.seek(m.C.Region)
	}
	// Careful: Dst is only meaningful when the opcode writes one; the
	// zero value of an absent Dst is register 0, not NoReg.
	hasDst := in.Op.HasDst() && in.Dst != ir.NoReg
	switch m.fault.plan.Kind {
	case FaultResultBit:
		if hasDst {
			return faultPost
		}
		if len(in.Args) > 0 {
			return faultPre
		}
		return faultSkip
	case FaultSourceBit:
		if len(in.Args) > 0 {
			return faultPre
		}
		if hasDst {
			return faultPost
		}
		return faultSkip
	case FaultOpcode:
		// Most opcode-field flips turn the instruction into some other
		// valid operation (no-op or wrong result); a small share hits
		// an illegal encoding and traps — Core dump and Hang stay rare
		// (<0.3%) as in the paper.
		switch m.fault.plan.Bit % 8 {
		case 0, 1, 2:
			return faultSkip
		case 7:
			return faultTrap
		default:
			if hasDst {
				return faultGarbage
			}
			return faultSkip
		}
	case FaultRegFile:
		return faultRegFile
	case FaultSkip:
		if m.fault.plan.Width > 1 {
			m.fault.skipsLeft = m.fault.plan.Width - 1
		}
		return faultSkip
	case FaultMultiBit:
		// Same landing rules as a result strike; flipBit widens the
		// upset to the planned number of adjacent bits.
		if hasDst {
			return faultPost
		}
		if len(in.Args) > 0 {
			return faultPre
		}
		return faultSkip
	}
	return faultNone
}

// regWidth is the architectural register width of the modeled target
// (the paper's ARMv7-A setup): every strike lands within a 32-bit
// register, whatever the interpreter's host word size.
const regWidth = 32

// flipBit flips the planned bit(s) in the given register of frame f.
// The fault model follows the paper's ARMv7-A setup: registers are
// regWidth (32) bits wide, so each planned bit is reduced modulo 32
// and, for float-typed registers, mapped onto the float64
// representation so the *relative* perturbation matches an FP32 strike
// (mantissa bit k of 23 → mantissa bit k+29 of 52; exponent and sign
// bits likewise). A FaultMultiBit plan flips Width adjacent
// architectural bits through the same mapping, and adjacency wraps
// modulo regWidth: a width-2 upset at bit 31 strikes bits {31, 0} —
// the event stays inside the 32-bit register, it never escapes into
// bit 32 of the host word. Every execution backend fires faults
// through this one function (the careful-step path), so the wrap
// semantics cannot diverge between interpreters.
func (m *Machine) flipBit(f *frame, r ir.Reg) {
	if r == ir.NoReg || int(r) >= len(f.regs) {
		return
	}
	width := uint(1)
	if m.fault.plan.Kind == FaultMultiBit && m.fault.plan.Width > 1 {
		width = m.fault.plan.Width
		if width > regWidth {
			width = regWidth
		}
	}
	isFloat := f.fn.RegType[r] == ir.Float
	for i := uint(0); i < width; i++ {
		b := (uint(m.fault.plan.Bit) + i) % regWidth
		if isFloat {
			switch {
			case b == 31: // sign
				b = 63
			case b >= 23: // exponent bit (b-23) of 8 → fp64 exponent bit
				b = 52 + (b - 23)
			default: // mantissa bit b of 23 → same relative weight in fp64
				b = 29 + b
			}
		}
		f.regs[r] ^= 1 << b
	}
}

// garbage derives a deterministic corrupted value from the plan.
func (m *Machine) garbage(orig uint64) uint64 {
	// Rotate and xor: far from the original, deterministic per plan.
	b := uint64(m.fault.plan.Bit&63) + 1
	return (orig << b) ^ (orig >> (64 - b)) ^ 0x9e3779b97f4a7c15
}

// regTagOf classifies a register by the protection tags of its
// defining instructions, so register-file strikes are attributed to
// the protection domain that covers the corrupted value (a flip in a
// prediction-covered value register that slips through fuzzy
// validation is a false negative). Computed lazily per function.
func (m *Machine) regTagOf(fi int, r ir.Reg) ir.InstrTag {
	if m.regTags == nil {
		m.regTags = make(map[int][]ir.InstrTag)
	}
	tags, ok := m.regTags[fi]
	if !ok {
		fn := m.Mod.Funcs[fi]
		tags = make([]ir.InstrTag, fn.NumRegs)
		for bi := range fn.Blocks {
			for ii := range fn.Blocks[bi].Instrs {
				in := &fn.Blocks[bi].Instrs[ii]
				if !in.Op.HasDst() || in.Dst == ir.NoReg {
					continue
				}
				// Value-slice defs dominate the classification: if any
				// def of the register is prediction-covered, a strike
				// on it is a prediction-domain strike.
				if in.Tag == ir.TagValue || tags[in.Dst] == ir.TagNone {
					tags[in.Dst] = in.Tag
				}
			}
		}
		m.regTags[fi] = tags
	}
	if int(r) < len(tags) {
		return tags[r]
	}
	return ir.TagNone
}
