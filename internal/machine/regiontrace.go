package machine

import (
	"fmt"
	"sort"

	"rskip/internal/ir"
)

// Region tracing records the layout of the in-region dynamic
// instruction stream — which candidate-loop region owns each in-region
// dynamic instruction, and what instruction class it is — during one
// profiling run. The compositional result cache (internal/result) uses
// the owner layout (ByOwner) to split one program-level
// fault-injection campaign into independent per-region campaigns, and
// the stratified sampler (internal/fault) uses the class layout
// (ByClass) to allocate replicas across instruction-class strata.
//
// Tracing is a profiling concern, not a campaign-hot-path one: both
// engines note each in-region instruction where they count Region —
// the reference interpreter in step, the compiled backend in its
// per-instruction careful path, which a trace forces the way Trace
// does — so the two record identical layouts.

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
	return fmt.Sprintf("machine: region trace exceeded %d spans; the region is too large for compositional analysis", e.Cap)
}

// RegionTrace collects the in-region instruction layout of one run.
// Attach it to Config.RegionTrace and read Spans afterwards.
type RegionTrace struct {
	// maxSpans caps trace growth (0 = defaultMaxSpans; tests set it).
	// When the cap is hit, recording stops and Overflowed reports it;
	// the run itself is unaffected.
	maxSpans int

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
	cap := t.maxSpans
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

// Overflowed reports that the trace hit its span cap and stopped
// recording. Callers must treat the trace as unusable.
func (t *RegionTrace) Overflowed() bool { return t.overflowed }

// Err returns the typed overflow error, or nil for a complete trace.
func (t *RegionTrace) Err() error {
	if t.overflowed {
		cap := t.maxSpans
		if cap == 0 {
			cap = defaultMaxSpans
		}
		return &TraceOverflowError{Cap: cap}
	}
	return nil
}

// Population is the part of a trace's in-region index space [0, Total)
// whose instructions share one key — an owner function (ByOwner) or an
// instruction class (ByClass) — held as the contiguous index intervals
// it occupies.
type Population struct {
	Key    int      // owner function index, or OpClass
	Count  uint64   // instructions in the population
	starts []uint64 // global start of each interval
	cum    []uint64 // population preceding each interval
}

// Pick maps a population-local index (0 <= j < Count) to the global
// in-region index of the population's j-th instruction.
func (p *Population) Pick(j uint64) uint64 {
	k := sort.Search(len(p.cum), func(i int) bool { return p.cum[i] > j }) - 1
	return p.starts[k] + (j - p.cum[k])
}

// Contains reports whether global in-region index g belongs to the
// population.
func (p *Population) Contains(g uint64) bool {
	k := sort.Search(len(p.starts), func(i int) bool { return p.starts[i] > g }) - 1
	return k >= 0 && g-p.starts[k] < p.width(k)
}

// width is the population of interval k.
func (p *Population) width(k int) uint64 {
	if k+1 < len(p.cum) {
		return p.cum[k+1] - p.cum[k]
	}
	return p.Count - p.cum[k]
}

// ByOwner splits the trace into one population per owner function,
// ordered by function index.
func (t *RegionTrace) ByOwner() []Population {
	return t.populations(func(sp RegionSpan) int { return sp.Owner })
}

// ByClass splits the trace into one population per instruction class
// that occurs in it, in class order.
func (t *RegionTrace) ByClass() []Population {
	return t.populations(func(sp RegionSpan) int { return int(sp.Class) })
}

// populations folds the spans into per-key populations, ordered by key.
// Adjacent spans of one key (differing only in the other axis) merge
// into one interval, so a population stays compact.
func (t *RegionTrace) populations(key func(RegionSpan) int) []Population {
	byKey := map[int]*Population{}
	var pos uint64
	for _, sp := range t.spans {
		k := key(sp)
		p := byKey[k]
		if p == nil {
			p = &Population{Key: k}
			byKey[k] = p
		}
		if n := len(p.starts); n == 0 || p.starts[n-1]+p.width(n-1) != pos {
			p.cum = append(p.cum, p.Count)
			p.starts = append(p.starts, pos)
		}
		p.Count += sp.N
		pos += sp.N
	}
	out := make([]Population, 0, len(byKey))
	for _, p := range byKey {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
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
