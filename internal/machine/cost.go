package machine

import "rskip/internal/ir"

// latency returns the completion latency in cycles for an op, modeling
// a conventional out-of-order core's functional units (integer ALU 1,
// multiplier 3, divider 12+, FP adder 3, FP multiplier 4, cache-hit
// load 3, long-latency math 20-32). The paper's Xeon E31230 numbers
// motivate the ratios; only relative shapes matter for the evaluation.
func latency(op ir.Op) uint64 {
	switch op {
	case ir.OpMul:
		return 3
	case ir.OpDiv, ir.OpRem:
		return 12
	case ir.OpFAdd, ir.OpFSub:
		return 3
	case ir.OpFMul:
		return 4
	case ir.OpFDiv:
		return 12
	case ir.OpSqrt:
		return 20
	case ir.OpExp, ir.OpLog:
		return 28
	case ir.OpPow:
		return 32
	case ir.OpLoad:
		return 3
	case ir.OpIToF, ir.OpFToI, ir.OpFloor, ir.OpFMin, ir.OpFMax, ir.OpFAbs, ir.OpFNeg:
		return 2
	}
	return 1
}

// uops returns how many dynamic instructions the op stands for. The
// protection primitives expand to the short sequences a backend would
// inline: Check2 is compare+branch, Vote3 is two compares, a branch
// and a conditional move.
func uops(op ir.Op) uint64 {
	switch op {
	case ir.OpCheck2:
		return 2
	case ir.OpVote3:
		return 4
	case ir.OpCall, ir.OpRet:
		return 1
	case ir.OpRTLoopEnter, ir.OpRTObserve, ir.OpRTLoopExit:
		// Runtime hooks charge their own cost through the bridge.
		return 0
	}
	return 1
}

// Cost describes work performed by the run-time management library on
// behalf of a hook; the machine converts it to dynamic instructions
// and pipeline issue slots so predictor overhead shows up in both the
// instruction counts (Fig. 7c) and the execution time (Fig. 7b).
type Cost struct {
	IntOps   int // 1-cycle ALU operations
	FpOps    int // 3-cycle FP operations
	MemOps   int // 3-cycle loads/stores
	Branches int // 1-cycle compare/branches
}

// Instrs returns the total dynamic instructions the cost represents.
func (c Cost) Instrs() uint64 {
	return uint64(c.IntOps + c.FpOps + c.MemOps + c.Branches)
}

// Add accumulates another cost.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		IntOps:   c.IntOps + o.IntOps,
		FpOps:    c.FpOps + o.FpOps,
		MemOps:   c.MemOps + o.MemOps,
		Branches: c.Branches + o.Branches,
	}
}

// pipeline models out-of-order superscalar issue: a μop issues at the
// first cycle with a free slot (width per cycle) at or after both its
// operands' ready cycles and the reorder-window floor (at most
// robWindow μops in flight). Long-latency operations therefore overlap
// across loop iterations the way they do on the paper's Xeon, while
// true dependence chains (reduction recurrences, vote-before-store)
// still serialize. Duplicated (shadow) instruction streams are
// independent of their masters, so they fill otherwise idle issue
// slots — the mechanism behind SWIFT-R's IPC boost in Fig. 7d, which
// hides part but not all of its extra instructions.
type pipeline struct {
	width uint16
	off   bool // untimed run (Config.Untimed): callers skip issue and every ready cycle

	floor   uint64 // no μop issues before this cycle
	maxDone uint64 // completion cycle of the latest-finishing μop
	last    uint64 // issue cycle of the most recent μop
	head    uint32 // ring cursor (masked by robWindow-1)

	// Fixed-size arrays keep the per-μop slot probes free of slice
	// headers and bounds checks (all indices are masked by a
	// power-of-two size): issue runs once per simulated instruction,
	// so its code shape is a first-order term of interpreter speed.
	ring [robWindow]uint64 // issue cycles of the last robWindow μops
	used [slotSpan]uint16  // slot counts for cycles [floor, floor+slotSpan)
}

// robWindow approximates the reorder-buffer capacity (power of two).
const robWindow = 64

// slotSpan is the modeled horizon of schedulable cycles past floor
// (power of two).
const slotSpan = 8192

func (p *pipeline) init(width int, off bool) {
	p.width = uint16(width)
	p.off = off
	p.floor = 0
	p.maxDone = 0
	p.last = 0
	p.head = 0
	if off {
		// issue never touches the arrays while off, and the next timed
		// init clears them, so an untimed replica skips the 16 KiB.
		return
	}
	clear(p.ring[:])
	clear(p.used[:])
}

// advanceFloor raises the window floor, recycling slot entries.
func (p *pipeline) advanceFloor(to uint64) {
	if to <= p.floor {
		return
	}
	if to-p.floor >= slotSpan {
		clear(p.used[:])
	} else {
		for c := p.floor; c < to; c++ {
			p.used[c&(slotSpan-1)] = 0
		}
	}
	p.floor = to
}

// issue schedules one μop whose operands are ready at readyAt and
// returns its completion cycle. It is the timed path only: every
// caller guards its whole timing statement — the operands' ready
// reads, this call and the destination's ready write — with !p.off,
// so an untimed run touches no ready cycle and no slot (its frames
// have no ready half; see newFrame) and its total stays 0.
func (p *pipeline) issue(readyAt uint64, lat uint64) uint64 {
	// In-flight window: this μop cannot issue before the μop robWindow
	// back did (monotone floor keeps the slot array consistent).
	ri := p.head & (robWindow - 1)
	if to := p.ring[ri]; to > p.floor {
		p.advanceFloor(to)
	}
	c := p.floor
	if readyAt > c {
		c = readyAt
		if c-p.floor >= slotSpan {
			// Far-future issue (very long dependence chain): everything
			// in between is idle anyway.
			p.advanceFloor(c - slotSpan/2)
		}
	}
	width := p.width
	ui := c & (slotSpan - 1)
	u := p.used[ui]
	for u >= width {
		c++
		if c-p.floor >= slotSpan {
			p.advanceFloor(c - slotSpan/2)
		}
		ui = c & (slotSpan - 1)
		u = p.used[ui]
	}
	p.used[ui] = u + 1
	p.ring[ri] = c
	p.head++
	p.last = c
	done := c + lat
	if done > p.maxDone {
		p.maxDone = done
	}
	return done
}

// now returns the issue cycle of the most recent μop — the point new
// runtime-library work is appended at.
func (p *pipeline) now() uint64 { return p.last }

// total returns the cycle the last μop completes.
func (p *pipeline) total() uint64 { return p.maxDone }
