package machine

import (
	"math"

	"rskip/internal/ir"
)

// The compiled backend (BackendCompiled) threads each basic block into
// closures: one Go func value per instruction, capturing the decoded
// operands (register indexes, immediates, latency) as locals, so
// executing an instruction takes no dispatch switch and no dinstr field
// loads. Every compiled execution path — segments, the
// per-instruction runPlain and stepCareful (dexec.go), the hang-proof
// dry run — runs these same closures; the reference interpreter
// (exec.go) is the only other implementation of the opcodes, and the
// spec the closures are tested against. Two further mechanisms
// remove the per-instruction and per-block bookkeeping that dominates
// a block interpreter's profile on the short blocks real kernels have:
//
//   - Lazy attribution. Instructions are grouped into *segments* —
//     maximal check-free runs ending at a break instruction
//     (terminator, call, runtime hook). Executing a segment bumps only
//     the counters the machine itself reads mid-run (Dyn for the
//     hang/cancel checks, Region for fault targeting) plus one
//     execution count in segHits; the per-opcode, per-tag and Internal
//     attribution — five adds per instruction in runPlain — is
//     folded in once per Run as Σ hits × precomputed-segment-delta,
//     which is arithmetically the identical total.
//
//   - Trigger thresholds. The exact per-block check battery
//     (cancel poll due? budget covers block? fault target inside
//     block? burst in flight?) collapses into two compares against
//     precomputed conservative thresholds: dynTrigger (the earliest
//     Dyn at which the budget, a cancel poll or tracing could matter
//     for *any* block, via the module-wide maximum block weight) and
//     regionTrigger (likewise for the armed fault's target). Until a
//     trigger fires, blocks run check-free; once one fires, the exact
//     per-block logic (runBlockSlow) decides, and recomputes the
//     thresholds. Entering the exact path early is always safe: it
//     produces bit-identical counters, cycles and outcomes, just more
//     slowly.
//
//   - A guarded cycle model. Each closure's timing statement — the
//     operands' ready reads, the pipeline issue and the destination's
//     ready write — sits under one `if !m.pl.off`, so an untimed run
//     (Config.Untimed: every campaign replica) touches no ready cycle.
//     Its frames carry no ready half (newFrame), so an access the guard
//     missed panics instead of quietly costing time.
//
// Counter totals, cycles, outputs and fault outcomes are bit-identical
// to the reference backend — the two-way golden sweep in
// internal/bench proves it. (The only deliberate non-contract freedom
// is cancellation polling cadence, which is hoisted to block
// boundaries.)
//
// Closures capture only immutable per-module data, never machine
// state, so one compiled body (Code.compiledForm) is shared by every
// machine — and every pooled campaign replica — running the same Code.

// cop is one compiled instruction.
type cop func(m *Machine, f *frame) error

// opDelta is one opcode's μop contribution to a segment.
type opDelta struct {
	op ir.Op
	n  uint64
}

// cseg is a maximal check-free instruction run: everything up to and
// including the next break instruction.
type cseg struct {
	body  []cop  // the block's ops[start : start+count]
	start int    // ip of body[0] within the block
	dyn   uint64 // Σ μops — the segment's Dyn delta
	count uint64 // len(body) — the segment's Region delta
	// Lazy-attribution deltas, folded as hits × delta at Run end.
	internalDyn uint64 // dyn when the segment's function is internal, else 0
	tags        [6]uint64
	ops         []opDelta
}

// cblock is one closure-threaded basic block.
type cblock struct {
	ops   []cop   // ip → the instruction's closure, which every compiled path runs
	segAt []int32 // ip → global index of the segment starting there, else -1
}

// cfunc is one closure-threaded function.
type cfunc struct{ blocks []cblock }

// ccode is the closure-threaded form of a Code. Segments live in one
// flat array so a machine's per-run execution counts (segHits) index
// it directly.
type ccode struct {
	fns      []cfunc
	segs     []cseg
	entrySeg []int32 // per function: first segment of block 0, or -1
	// Module-wide maxima over block μop weight and instruction count,
	// for the conservative trigger thresholds.
	maxBlockUops uint64
	maxBlockIns  uint64
}

// compileClosures threads a pre-decoded module into closures. Two
// passes: the first numbers every segment (so branch targets that
// appear before their block is reached still resolve), the second
// compiles one closure per instruction into the block's ops table,
// handing each branch, call and hook its statically known successor
// segment — the frame.nseg hint that lets runBlockC dispatch without
// walking fns→blocks→segAt. Segment bodies are sub-slices of ops.
func compileClosures(c *Code) *ccode {
	cc := &ccode{fns: make([]cfunc, len(c.fns))}
	for fi := range c.fns {
		fc := &c.fns[fi]
		internal := c.mod.Funcs[fi].Internal
		cf := &cc.fns[fi]
		cf.blocks = make([]cblock, len(fc.blocks))
		for bi := range fc.blocks {
			blk := &fc.blocks[bi]
			cb := &cf.blocks[bi]
			cb.segAt = make([]int32, len(blk.ins))
			for i := range cb.segAt {
				cb.segAt[i] = -1
			}
			start := 0
			for i := range blk.ins {
				if blk.ins[i].brk {
					cb.segAt[start] = int32(len(cc.segs))
					cc.segs = append(cc.segs, segMeta(blk, start, i+1, internal))
					start = i + 1
				}
			}
			// A well-formed block ends in a terminator (brk), so every
			// instruction is covered; a malformed tail simply keeps
			// segAt == -1 and executes one instruction at a time.
			cc.maxBlockUops = max(cc.maxBlockUops, blk.uops)
			cc.maxBlockIns = max(cc.maxBlockIns, uint64(len(blk.ins)))
		}
	}
	cc.entrySeg = make([]int32, len(cc.fns))
	for fi := range cc.fns {
		cc.entrySeg[fi] = blockEntry(&cc.fns[fi], 0)
	}
	for fi := range c.fns {
		fc := &c.fns[fi]
		cf := &cc.fns[fi]
		for bi := range fc.blocks {
			blk := &fc.blocks[bi]
			cb := &cf.blocks[bi]
			cb.ops = make([]cop, len(blk.ins))
			for i := range blk.ins {
				d := &blk.ins[i]
				n0, n1 := nextHints(cf, cb, d, i)
				cb.ops[i] = compileIns(d, n0, n1)
			}
			for _, si := range cb.segAt {
				if si >= 0 {
					seg := &cc.segs[si]
					seg.body = cb.ops[seg.start : seg.start+int(seg.count)]
				}
			}
		}
	}
	return cc
}

// segMeta collects a segment's charge metadata; the closure body is
// sliced out of the block's ops table by the second compile pass.
func segMeta(blk *dblock, start, end int, internal bool) cseg {
	seg := cseg{
		start: start,
		count: uint64(end - start),
	}
	var ops [ir.NumOps]uint64
	for i := start; i < end; i++ {
		d := &blk.ins[i]
		n := uint64(d.n)
		seg.dyn += n
		seg.tags[d.tag] += n
		ops[d.op] += n
	}
	if internal {
		seg.internalDyn = seg.dyn
	}
	for op, n := range ops {
		if n != 0 {
			seg.ops = append(seg.ops, opDelta{op: ir.Op(op), n: n})
		}
	}
	return seg
}

// blockEntry returns the first segment of a function's block, or -1.
func blockEntry(cf *cfunc, bi int) int32 {
	if bi < 0 || bi >= len(cf.blocks) || len(cf.blocks[bi].segAt) == 0 {
		return -1
	}
	return cf.blocks[bi].segAt[0]
}

// nextHints returns the statically known successor segment(s) for the
// instruction at ip: branch targets' entry segments, or the segment
// following a call/hook in the same block. -1 means unknown.
func nextHints(cf *cfunc, cb *cblock, d *dinstr, ip int) (int32, int32) {
	switch d.op {
	case ir.OpBr:
		return blockEntry(cf, int(d.b0)), -1
	case ir.OpCondBr:
		return blockEntry(cf, int(d.b0)), blockEntry(cf, int(d.b1))
	case ir.OpCall, ir.OpRTLoopEnter, ir.OpRTObserve, ir.OpRTLoopExit:
		if ip+1 < len(cb.segAt) {
			return cb.segAt[ip+1], -1
		}
	}
	return -1, -1
}

// recalcTriggers recomputes the conservative thresholds after any
// event that can change them: machine construction/reset, a cancel
// poll (cancelAt moved), a careful step (fault fired, burst drained).
func (m *Machine) recalcTriggers() {
	const never = ^uint64(0)
	t := never
	if mu := m.ccode.maxBlockUops; m.cfg.MaxInstrs >= mu {
		t = m.cfg.MaxInstrs - mu + 1
	} else {
		t = 0
	}
	if m.cfg.Cancel != nil && m.cancelAt < t {
		t = m.cancelAt
	}
	// A replica due for a hang-proof attempt leaves the fast path
	// (noCheck otherwise).
	t = min(t, m.hang.at)
	if m.cfg.Trace != nil || m.cfg.RegionTrace != nil || m.fault.skipsLeft > 0 {
		t = 0
	}
	m.dynTrigger = t
	r := never
	if m.fault.armed && !m.fault.fired {
		if mi := m.ccode.maxBlockIns; m.fault.plan.Target >= mi {
			r = m.fault.plan.Target - mi + 1
		} else {
			r = 0
		}
	}
	// A replica checking for convergence leaves the fast path at its
	// next check point (noCheck otherwise).
	m.regionTrigger = min(r, m.conv.at)
}

// blockInRegion reports whether the frame's current block executes
// inside the detected-loop region.
func (m *Machine) blockInRegion(f *frame) bool {
	if f.inRegion {
		return true
	}
	if m.region != nil {
		if fb := m.region[f.fi]; fb != nil {
			return fb[f.block]
		}
	}
	return false
}

// runCompiled steps closure-threaded blocks until the frame stack
// shrinks to the given depth.
func (m *Machine) runCompiled(depth int) error {
	for len(m.fr) > depth {
		if err := m.runBlockC(); err != nil {
			for len(m.fr) > depth {
				m.popFrame()
			}
			return err
		}
	}
	return nil
}

// runBlockC executes the top frame to the end of its current segment.
// The frame's nseg hint — maintained by pushFrame and the branch,
// call and hook closures, and cleared whenever a careful step moves a
// frame — is either -1 or exactly the segment starting at the frame's
// current position, so the hot transition needs no fns→blocks→segAt
// pointer chase.
func (m *Machine) runBlockC() error {
	f := &m.fr[len(m.fr)-1]
	if m.C.Dyn >= m.dynTrigger || m.C.Region >= m.regionTrigger {
		return m.runBlockSlow(f)
	}
	if si := f.nseg; si >= 0 {
		return m.runSegAt(f, si)
	}
	cb := &m.ccode.fns[f.fi].blocks[f.block]
	if si := cb.segAt[f.ip]; si >= 0 {
		return m.runSegAt(f, si)
	}
	// Mid-segment resume (careful mode cleared inside a block): finish
	// it through runPlain's per-instruction loop, which charges
	// the identical totals one instruction at a time. The trigger check
	// above proved the rest of the block is safe.
	return m.runPlain(f, m.blockInRegion(f))
}

// runBlockSlow is the exact block-entry path, taken while a trigger
// threshold is met: it decides whether any per-instruction check
// (hang, fault, burst, trace) could trigger inside the block and, if
// so, steps it exactly through stepCareful (dexec.go). At top level it
// also runs a due convergence check (converge.go), and at any depth a
// due hang-proof attempt (hangproof.go).
func (m *Machine) runBlockSlow(f *frame) error {
	if m.C.Region >= m.conv.at && m.nest == 0 && m.converged() {
		return errConverged
	}
	if m.C.Dyn >= m.hang.at {
		m.tryHangProof(f)
	}
	blk := &m.code.fns[f.fi].blocks[f.block]
	inRegion := m.blockInRegion(f)
	if m.cfg.Cancel != nil && m.C.Dyn >= m.cancelAt {
		m.cancelAt = m.C.Dyn + cancelPollInterval
		if m.cancelled() {
			return &CancelError{}
		}
	}
	careful := m.cfg.Trace != nil || m.cfg.RegionTrace != nil ||
		m.C.Dyn+blk.uops > m.cfg.MaxInstrs ||
		m.fault.skipsLeft > 0
	if !careful && m.fault.armed && !m.fault.fired && inRegion &&
		m.C.Region+uint64(len(blk.ins)-f.ip) > m.fault.plan.Target {
		careful = true
	}
	if careful {
		err := m.stepCareful(f, inRegion)
		m.recalcTriggers()
		return err
	}
	m.recalcTriggers()
	if si := m.ccode.fns[f.fi].blocks[f.block].segAt[f.ip]; si >= 0 {
		return m.runSegAt(f, si)
	}
	return m.runPlain(f, inRegion)
}

// runSegAt executes one whole segment: charge, then the closure run.
func (m *Machine) runSegAt(f *frame, si int32) error {
	seg := &m.ccode.segs[si]
	m.C.Dyn += seg.dyn
	if m.blockInRegion(f) {
		m.C.Region += seg.count
	}
	m.segHits[si]++
	body := seg.body
	last := len(body) - 1
	for i := 0; i < last; i++ {
		if err := body[i](m, f); err != nil {
			m.unwindSegCharge(f, seg, si, i)
			f.ip = seg.start + i + 1
			f.nseg = -1
			return err
		}
	}
	f.ip = seg.start + last + 1
	return body[last](m, f)
	// If the final (break) instruction errors, the full-segment charge
	// stands: every instruction was charged and executed, the last one
	// trapping after its charge — the reference's order.
}

// unwindSegCharge replaces the whole-segment charge with the exact
// charge for the executed prefix after instruction erroring (0-based)
// erred: the erroring instruction keeps its charge (the reference
// charges before executing), the unexecuted tail loses its.
func (m *Machine) unwindSegCharge(f *frame, seg *cseg, si int32, erroring int) {
	m.segHits[si]--
	m.C.Dyn -= seg.dyn
	inRegion := m.blockInRegion(f)
	if inRegion {
		m.C.Region -= seg.count
	}
	blk := &m.code.fns[f.fi].blocks[f.block]
	internal := f.fn.Internal
	for k := 0; k <= erroring; k++ {
		d := &blk.ins[seg.start+k]
		n := uint64(d.n)
		m.C.Dyn += n
		m.C.ops[d.op] += n
		m.C.ByTag[d.tag] += n
		if inRegion {
			m.C.Region++
		}
		if internal {
			m.C.Internal += n
		}
	}
}

// foldSegCounters folds the lazy per-segment execution counts into the
// counter struct — hits × precomputed delta lands on the identical
// totals runPlain accumulates per instruction — and clears them
// for the next run. Called once per top-level Run, so Counters is
// fully consistent whenever a caller can observe it.
func (m *Machine) foldSegCounters() {
	for si := range m.segHits {
		h := m.segHits[si]
		if h == 0 {
			continue
		}
		m.segHits[si] = 0
		seg := &m.ccode.segs[si]
		m.C.Internal += h * seg.internalDyn
		for t, n := range seg.tags {
			if n != 0 {
				m.C.ByTag[t] += h * n
			}
		}
		for _, od := range seg.ops {
			m.C.ops[od.op] += h * od.n
		}
	}
}

// pureOp reports ops with no side effects beyond their destination
// write: when the destination is NoReg these compile to an issue-only
// closure. They are the ops isoClasses lets a tainted operand through:
// the ops the IR calls pure, less loads and the ops the reference exec
// can make trap, which keep their effects even without a destination.
func pureOp(op ir.Op) bool {
	c := isoClasses()[op]
	return c == isoPure || c == isoVote
}

func issue0(lat uint64) cop {
	return func(m *Machine, f *frame) error {
		if !m.pl.off {
			m.pl.issue(0, lat)
		}
		return nil
	}
}

func issue1(a0 ir.Reg, lat uint64) cop {
	return func(m *Machine, f *frame) error {
		if !m.pl.off {
			m.pl.issue(f.ready[a0], lat)
		}
		return nil
	}
}

func issue2(a0, a1 ir.Reg, lat uint64) cop {
	return func(m *Machine, f *frame) error {
		if !m.pl.off {
			m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
		}
		return nil
	}
}

func issue3(a0, a1, a2 ir.Reg, lat uint64) cop {
	return func(m *Machine, f *frame) error {
		if !m.pl.off {
			m.pl.issue(max(f.ready[a0], f.ready[a1], f.ready[a2]), lat)
		}
		return nil
	}
}

// compileIns compiles one pre-decoded instruction to a closure. Every
// case follows the reference interpreter's exec (exec.go): the timing
// statement, skipped whole when the model is off, comes first with the
// same operand-ready cycle, then the operation — cycles and traps stay
// bit-identical. (A trapping op writes its destination's ready cycle
// before the trap; the trap ends the frame, so nothing reads it.) The
// closure is the compiled engine's only implementation of the
// instruction: segments, runPlain, stepCareful and the hang-proof dry
// run all call it. n0/n1 are the nextHints successor segments for
// branches, calls and hooks.
func compileIns(d *dinstr, n0, n1 int32) cop {
	dst, a0, a1, a2 := d.dst, d.a0, d.a1, d.a2
	lat := uint64(d.lat)

	if dst == ir.NoReg && pureOp(d.op) {
		switch d.nargs {
		case 0:
			return issue0(lat)
		case 1:
			return issue1(a0, lat)
		case 2:
			return issue2(a0, a1, lat)
		case 3:
			return issue3(a0, a1, a2, lat)
		}
	}

	switch d.op {
	case ir.OpConstInt:
		bits := uint64(d.imm)
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(0, lat)
			}
			f.regs[dst] = bits
			return nil
		}
	case ir.OpConstFloat:
		bits := f2b(d.fimm)
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(0, lat)
			}
			f.regs[dst] = bits
			return nil
		}
	case ir.OpMov:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			f.regs[dst] = f.regs[a0]
			return nil
		}

	case ir.OpAdd:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = uint64(int64(f.regs[a0]) + int64(f.regs[a1]))
			return nil
		}
	case ir.OpSub:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = uint64(int64(f.regs[a0]) - int64(f.regs[a1]))
			return nil
		}
	case ir.OpMul:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = uint64(int64(f.regs[a0]) * int64(f.regs[a1]))
			return nil
		}
	case ir.OpDiv:
		if dst == ir.NoReg {
			return func(m *Machine, f *frame) error {
				if !m.pl.off {
					m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
				}
				if int64(f.regs[a1]) == 0 {
					return &TrapError{Reason: "integer divide by zero"}
				}
				return nil
			}
		}
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			dv := int64(f.regs[a1])
			if dv == 0 {
				return &TrapError{Reason: "integer divide by zero"}
			}
			f.regs[dst] = uint64(int64(f.regs[a0]) / dv)
			return nil
		}
	case ir.OpRem:
		if dst == ir.NoReg {
			return func(m *Machine, f *frame) error {
				if !m.pl.off {
					m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
				}
				if int64(f.regs[a1]) == 0 {
					return &TrapError{Reason: "integer remainder by zero"}
				}
				return nil
			}
		}
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			dv := int64(f.regs[a1])
			if dv == 0 {
				return &TrapError{Reason: "integer remainder by zero"}
			}
			f.regs[dst] = uint64(int64(f.regs[a0]) % dv)
			return nil
		}
	case ir.OpAnd:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f.regs[a0] & f.regs[a1]
			return nil
		}
	case ir.OpOr:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f.regs[a0] | f.regs[a1]
			return nil
		}
	case ir.OpXor:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f.regs[a0] ^ f.regs[a1]
			return nil
		}
	case ir.OpShl:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f.regs[a0] << (f.regs[a1] & 63)
			return nil
		}
	case ir.OpShr:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f.regs[a0] >> (f.regs[a1] & 63)
			return nil
		}
	case ir.OpNeg:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			f.regs[dst] = uint64(-int64(f.regs[a0]))
			return nil
		}

	case ir.OpFAdd:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f2b(b2f(f.regs[a0]) + b2f(f.regs[a1]))
			return nil
		}
	case ir.OpFSub:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f2b(b2f(f.regs[a0]) - b2f(f.regs[a1]))
			return nil
		}
	case ir.OpFMul:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f2b(b2f(f.regs[a0]) * b2f(f.regs[a1]))
			return nil
		}
	case ir.OpFDiv:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f2b(b2f(f.regs[a0]) / b2f(f.regs[a1]))
			return nil
		}
	case ir.OpFNeg:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			f.regs[dst] = f2b(-b2f(f.regs[a0]))
			return nil
		}

	case ir.OpEq:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(int64(f.regs[a0]) == int64(f.regs[a1]))
			return nil
		}
	case ir.OpNe:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(int64(f.regs[a0]) != int64(f.regs[a1]))
			return nil
		}
	case ir.OpLt:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(int64(f.regs[a0]) < int64(f.regs[a1]))
			return nil
		}
	case ir.OpLe:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(int64(f.regs[a0]) <= int64(f.regs[a1]))
			return nil
		}
	case ir.OpGt:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(int64(f.regs[a0]) > int64(f.regs[a1]))
			return nil
		}
	case ir.OpGe:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(int64(f.regs[a0]) >= int64(f.regs[a1]))
			return nil
		}
	case ir.OpFEq:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(b2f(f.regs[a0]) == b2f(f.regs[a1]))
			return nil
		}
	case ir.OpFNe:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(b2f(f.regs[a0]) != b2f(f.regs[a1]))
			return nil
		}
	case ir.OpFLt:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(b2f(f.regs[a0]) < b2f(f.regs[a1]))
			return nil
		}
	case ir.OpFLe:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(b2f(f.regs[a0]) <= b2f(f.regs[a1]))
			return nil
		}
	case ir.OpFGt:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(b2f(f.regs[a0]) > b2f(f.regs[a1]))
			return nil
		}
	case ir.OpFGe:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = boolBits(b2f(f.regs[a0]) >= b2f(f.regs[a1]))
			return nil
		}

	case ir.OpIToF:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			f.regs[dst] = f2b(float64(int64(f.regs[a0])))
			return nil
		}
	case ir.OpFToI:
		if dst == ir.NoReg {
			return func(m *Machine, f *frame) error {
				if !m.pl.off {
					m.pl.issue(f.ready[a0], lat)
				}
				v := b2f(f.regs[a0])
				if math.IsNaN(v) || v > math.MaxInt64 || v < math.MinInt64 {
					return &TrapError{Reason: "float to int conversion out of range"}
				}
				return nil
			}
		}
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			v := b2f(f.regs[a0])
			if math.IsNaN(v) || v > math.MaxInt64 || v < math.MinInt64 {
				return &TrapError{Reason: "float to int conversion out of range"}
			}
			f.regs[dst] = uint64(int64(v))
			return nil
		}

	case ir.OpLoad:
		li := d.load
		if dst == ir.NoReg {
			return func(m *Machine, f *frame) error {
				if !m.pl.off {
					m.pl.issue(f.ready[a0], lat)
				}
				addr := int64(f.regs[a0])
				if m.capt != nil {
					m.capt.noteLoad(li, addr)
				}
				if !(m.overrideActive && addr == m.overrideAddr) {
					if _, err := m.Mem.LoadWord(addr); err != nil {
						return err
					}
				}
				return nil
			}
		}
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			addr := int64(f.regs[a0])
			if m.capt != nil {
				m.capt.noteLoad(li, addr)
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
			f.regs[dst] = w
			return nil
		}
	case ir.OpStore:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			return m.Mem.StoreWord(int64(f.regs[a0]), f.regs[a1])
		}
	case ir.OpAlloca:
		size := d.imm
		if dst == ir.NoReg {
			return func(m *Machine, f *frame) error {
				if !m.pl.off {
					m.pl.issue(0, lat)
				}
				_, err := m.Mem.pushStack(size)
				return err
			}
		}
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(0, lat)
			}
			base, err := m.Mem.pushStack(size)
			if err != nil {
				return err
			}
			f.regs[dst] = uint64(base)
			return nil
		}

	case ir.OpSqrt:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			f.regs[dst] = f2b(math.Sqrt(b2f(f.regs[a0])))
			return nil
		}
	case ir.OpExp:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			f.regs[dst] = f2b(math.Exp(b2f(f.regs[a0])))
			return nil
		}
	case ir.OpLog:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			f.regs[dst] = f2b(math.Log(b2f(f.regs[a0])))
			return nil
		}
	case ir.OpFAbs:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			f.regs[dst] = f2b(math.Abs(b2f(f.regs[a0])))
			return nil
		}
	case ir.OpPow:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f2b(math.Pow(b2f(f.regs[a0]), b2f(f.regs[a1])))
			return nil
		}
	case ir.OpFloor:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(f.ready[a0], lat)
			}
			f.regs[dst] = f2b(math.Floor(b2f(f.regs[a0])))
			return nil
		}
	case ir.OpFMin:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f2b(math.Min(b2f(f.regs[a0]), b2f(f.regs[a1])))
			return nil
		}
	case ir.OpFMax:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			f.regs[dst] = f2b(math.Max(b2f(f.regs[a0]), b2f(f.regs[a1])))
			return nil
		}

	case ir.OpBr:
		b0 := int(d.b0)
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				m.pl.issue(0, lat)
			}
			f.block = b0
			f.ip = 0
			f.nseg = n0
			return nil
		}
	case ir.OpCondBr:
		b0, b1 := int(d.b0), int(d.b1)
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				m.pl.issue(f.ready[a0], lat)
			}
			if f.regs[a0] != 0 {
				f.block = b0
				f.nseg = n0
			} else {
				f.block = b1
				f.nseg = n1
			}
			f.ip = 0
			return nil
		}
	case ir.OpRet:
		hasArg := d.nargs == 1
		return func(m *Machine, f *frame) error {
			timed := !m.pl.off
			var done uint64
			if timed {
				var rdy uint64
				if hasArg {
					rdy = f.ready[a0]
				}
				done = m.pl.issue(rdy, lat)
			}
			var ret uint64
			if hasArg {
				ret = f.regs[a0]
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
			return nil
		}
	case ir.OpCall:
		src, srcArgs := d.src, d.src.Args
		callee := int(d.callee)
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				m.pl.issue(readyOf(f, src), lat)
			}
			args := make([]uint64, len(srcArgs))
			for i, a := range srcArgs {
				args[i] = f.regs[a]
			}
			// The caller resumes at the segment after the call; record it
			// before pushFrame, which may grow m.fr and move the frame.
			f.nseg = n0
			return m.pushFrame(callee, args, dst)
		}

	case ir.OpCheck2:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				m.pl.issue(max(f.ready[a0], f.ready[a1]), lat)
			}
			if f.regs[a0] != f.regs[a1] {
				return &DetectError{Func: f.fn.Name}
			}
			return nil
		}
	case ir.OpVote3:
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				f.ready[dst] = m.pl.issue(max(f.ready[a0], f.ready[a1], f.ready[a2]), lat)
			}
			a, b, c := f.regs[a0], f.regs[a1], f.regs[a2]
			if a == b && b == c {
				f.regs[dst] = a
				return nil
			}
			m.splitVotes++
			if a != b && a != c && b == c {
				a = b
			}
			f.regs[dst] = a
			return nil
		}

	case ir.OpRTLoopEnter:
		src, srcArgs := d.src, d.src.Args
		id := int(d.imm)
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				m.pl.issue(readyOf(f, src), lat)
			}
			f.nseg = n0
			if m.cfg.Hooks != nil {
				inv := make([]uint64, len(srcArgs))
				for i, a := range srcArgs {
					inv[i] = f.regs[a]
				}
				m.hookOp = ir.OpRTLoopEnter
				return m.cfg.Hooks.LoopEnter(m, id, inv)
			}
			return nil
		}
	case ir.OpRTObserve:
		id := int(d.imm)
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				m.pl.issue(max(f.ready[a0], f.ready[a1], f.ready[a2]), lat)
			}
			f.nseg = n0
			if m.cfg.Hooks != nil {
				m.hookOp = ir.OpRTObserve
				return m.cfg.Hooks.Observe(m, id,
					int64(f.regs[a0]), f.regs[a1], int64(f.regs[a2]))
			}
			return nil
		}
	case ir.OpRTLoopExit:
		id := int(d.imm)
		return func(m *Machine, f *frame) error {
			if !m.pl.off {
				m.pl.issue(0, lat)
			}
			f.nseg = n0
			if m.cfg.Hooks != nil {
				m.hookOp = ir.OpRTLoopExit
				return m.cfg.Hooks.LoopExit(m, id)
			}
			return nil
		}
	}

	// Unknown opcode: issue with the generic operand-ready cycle, then
	// trap — the reference's charge-then-trap order.
	msg := "illegal instruction " + d.op.String()
	src := d.src
	return func(m *Machine, f *frame) error {
		if !m.pl.off {
			m.pl.issue(readyOf(f, src), lat)
		}
		return &TrapError{Reason: msg}
	}
}
