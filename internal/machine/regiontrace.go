package machine

import (
	"fmt"

	"rskip/internal/ir"
)

// Region tracing records the layout of the in-region dynamic
// instruction stream — which candidate-loop region owns each in-region
// dynamic instruction, and what instruction class it is — during one
// profiling run. The compositional result cache (internal/result) uses
// the owner layout to split one program-level fault-injection campaign
// into independent per-region campaigns, and the stratified sampler
// (internal/fault) uses the class layout to allocate replicas across
// instruction-class strata.
//
// Tracing is a profiling concern, not a campaign-hot-path one: it is
// implemented in the reference interpreter only (the executable spec
// the compiled backend is differentially tested against), and callers
// that request a trace must run with Config.Backend set to
// BackendReference — core's RunOpts plumbing does this automatically.
// Since both backends count Region bit-identically, the layout
// recorded by the reference interpreter is exact for either.

// OpClass is the coarse instruction-class taxonomy used for stratified
// fault sampling: strata group dynamic instructions whose fault
// responses are alike (memory traffic segfaults, branches derail
// control flow, ALU results feed silent corruption).
type OpClass uint8

// Instruction classes.
const (
	ClassALU     OpClass = iota // int arithmetic/logic/moves/constants/compares/converts
	ClassFloat                  // floating-point arithmetic and intrinsics
	ClassMem                    // loads, stores, allocas
	ClassBranch                 // branches and returns
	ClassCall                   // calls
	ClassCheck                  // protection ops (check2, vote3)
	ClassRuntime                // run-time management hooks
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{
	ClassALU:     "alu",
	ClassFloat:   "float",
	ClassMem:     "mem",
	ClassBranch:  "branch",
	ClassCall:    "call",
	ClassCheck:   "check",
	ClassRuntime: "runtime",
}

func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("OpClass(%d)", uint8(c))
}

// ClassOf maps an opcode to its stratification class.
func ClassOf(op ir.Op) OpClass {
	switch op {
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFNeg,
		ir.OpFEq, ir.OpFNe, ir.OpFLt, ir.OpFLe, ir.OpFGt, ir.OpFGe,
		ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpFAbs, ir.OpPow,
		ir.OpFloor, ir.OpFMin, ir.OpFMax, ir.OpIToF, ir.OpFToI:
		return ClassFloat
	case ir.OpLoad, ir.OpStore, ir.OpAlloca:
		return ClassMem
	case ir.OpBr, ir.OpCondBr, ir.OpRet:
		return ClassBranch
	case ir.OpCall:
		return ClassCall
	case ir.OpCheck2, ir.OpVote3:
		return ClassCheck
	case ir.OpRTLoopEnter, ir.OpRTObserve, ir.OpRTLoopExit:
		return ClassRuntime
	}
	return ClassALU
}

// RegionSpan is one run of consecutive in-region dynamic instructions
// sharing an owner function and an instruction class. Because the
// in-region counter increments by exactly one per recorded
// instruction, the spans tile the in-region index space [0, Total) in
// order: span i covers the N indices following the spans before it.
type RegionSpan struct {
	Owner int     // function index owning the region the instruction ran in
	Class OpClass // instruction class
	N     uint64  // consecutive in-region dynamic instructions
}

// defaultMaxSpans bounds trace memory (~24 bytes/span). Class changes
// every few instructions, so span count is within a small factor of
// the region size; the default covers multi-million-instruction
// regions while keeping a runaway trace under ~100 MB.
const defaultMaxSpans = 4 << 20

// TraceOverflowError reports a region whose layout exceeded the trace
// span budget — the region is too large to analyze compositionally
// under the configured cap.
type TraceOverflowError struct{ Cap int }

func (e *TraceOverflowError) Error() string {
	return fmt.Sprintf("machine: region trace exceeded %d spans; the region is too large for compositional analysis (raise RegionTrace.MaxSpans)", e.Cap)
}

// RegionTrace collects the in-region instruction layout of one run.
// Attach it to Config.RegionTrace (reference backend only) and read
// Spans afterwards.
type RegionTrace struct {
	// MaxSpans caps trace growth (0 = defaultMaxSpans). When the cap is
	// hit, recording stops and Overflowed reports it; the run itself is
	// unaffected.
	MaxSpans int

	spans      []RegionSpan
	total      uint64
	overflowed bool
}

// note appends one in-region dynamic instruction to the trace.
func (t *RegionTrace) note(owner int, class OpClass) {
	if t.overflowed {
		return
	}
	if n := len(t.spans); n > 0 {
		last := &t.spans[n-1]
		if last.Owner == owner && last.Class == class {
			last.N++
			t.total++
			return
		}
	}
	cap := t.MaxSpans
	if cap == 0 {
		cap = defaultMaxSpans
	}
	if len(t.spans) >= cap {
		t.overflowed = true
		return
	}
	t.spans = append(t.spans, RegionSpan{Owner: owner, Class: class, N: 1})
	t.total++
}

// Spans returns the recorded layout in execution order.
func (t *RegionTrace) Spans() []RegionSpan { return t.spans }

// Total returns the number of in-region dynamic instructions recorded;
// it equals the run's Region counter unless the trace overflowed.
func (t *RegionTrace) Total() uint64 { return t.total }

// Overflowed reports that the trace hit MaxSpans and stopped
// recording. Callers must treat the trace as unusable.
func (t *RegionTrace) Overflowed() bool { return t.overflowed }

// Err returns the typed overflow error, or nil for a complete trace.
func (t *RegionTrace) Err() error {
	if t.overflowed {
		cap := t.MaxSpans
		if cap == 0 {
			cap = defaultMaxSpans
		}
		return &TraceOverflowError{Cap: cap}
	}
	return nil
}

// regionOwnerNow attributes the currently executing in-region
// instruction to the function owning the region it runs in: the
// innermost frame positioned in a detected-loop region block. Code
// reached by calls from region blocks (helpers, value slices) is
// attributed to the calling loop's function — an edit to the callee
// changes the owner's region fingerprint through the call closure, so
// the attribution and the cache key invalidate together. Frames inside
// forced-region functions (outlined recompute slices) that are not
// under any region block fall back to Config.RegionOwner, then to the
// forced function itself.
func (m *Machine) regionOwnerNow() int {
	for i := len(m.fr) - 1; i >= 0; i-- {
		fr := &m.fr[i]
		if rb := m.cfg.RegionBlocks[fr.fi]; rb != nil && rb[fr.block] {
			return fr.fi
		}
	}
	for i := len(m.fr) - 1; i >= 0; i-- {
		fr := &m.fr[i]
		if m.cfg.RegionFuncs[fr.fi] {
			if o, ok := m.cfg.RegionOwner[fr.fi]; ok {
				return o
			}
			return fr.fi
		}
	}
	return m.fr[len(m.fr)-1].fi
}
