package machine

import (
	"math"

	"rskip/internal/analysis"
	"rskip/internal/ir"
)

// Hang proofs. A replica classifies as Hang only once it executes past
// its instruction budget, and nothing after a HangError can be
// observed: the caller reads no memory of an erroring run, and the
// loop a runaway replica spins in calls no runtime hook, so the hook
// statistics stop changing. Only the counters at the instruction that
// crosses the budget remain. A compiled replica that checks for
// convergence (Config.Converge), whose fault has fired and whose skip
// burst has drained, can therefore skip the runaway loop's iterations
// once it proves that every one of them runs the same path until the
// budget runs out:
//
//   - Standing at a loop header (ip 0) of the top frame, it dry-runs one
//     iteration on a copy of the registers, back to the header, and
//     summarises each register as an affine function a + b·j of the
//     iteration index j (a is the register's value now), or as unknown
//     (top). Loads are unknown; only add, sub, mov, neg, multiply by an
//     invariant, shift left by an invariant and a vote of identical
//     operands keep a varying value affine. Registers the iteration
//     reads before writing must come back as (a+b, b) — otherwise they
//     become unknown and the dry run repeats.
//   - Obligations bound the number J of iterations the summary holds:
//     every branch operand and address is known; no comparison or
//     branch changes its j = 0 outcome; every address stays in
//     [0, MappedLimit); no varying value leaves int64. Calls, returns,
//     runtime hooks, Alloca and Check2 reject the loop, as do Div, Rem
//     and FToI unless their trapping operand is invariant and safe.
//   - If the budget runs out in iteration k* < J, the replica adds k*
//     iterations' worth of Dyn, Region and segment counts, moves each
//     affine register to a + b·k*, and resumes normal dispatch, which
//     raises the HangError at the exact instruction a from-zero run
//     would. Registers the summary calls unknown, and memory, now hold
//     stale values, which reach nothing but other unknown values and
//     stored data before the run ends; the convergence check, which
//     would compare them, is disarmed.
//
// An attempt tries the first loop header the top frame reaches, which
// is the innermost loop around it. A loop whose proof shows it leaves
// its path before the budget ends hands the attempt on as soon as it
// has: to the parent loop's header if it exits, whose iterations
// unroll it, or to its own header with its new path. An attempt that
// fails, or tries hangTries loops or waits hangSeek instructions
// without a proof, backs off exponentially. The reference engine never
// proves: it stays the oracle the differential tests compare against.

// hangState schedules one replica's hang-proof attempts.
type hangState struct {
	at    uint64 // Dyn at which the next attempt is due, or noCheck
	gap   uint64 // Dyn a failed attempt waits before the next; doubles
	until uint64 // the attempt under way gives up past this Dyn; 0 when none is
	tries int    // loops the attempt under way has tried

	skipped uint64 // instructions a proof did not execute; > 0 once one did
}

const (
	// hangMaxPath caps the instructions one dry-run iteration may hold;
	// so does a 16th of the budget left, so that a proof skips at least
	// 16 iterations for one dry run's cost.
	hangMaxPath = 1 << 18
	// hangSeek is how many instructions an attempt may take to reach
	// loop headers, and hangTries how many loops it may try.
	hangSeek  = 1 << 16
	hangTries = 4
	// hangMinGap is the shortest back-off after a failed attempt.
	hangMinGap = 1 << 12
)

// armHangProof schedules the first attempt of a run with cfg: compiled
// replicas that check for convergence try once they outlive the clean
// run.
func (m *Machine) armHangProof() {
	m.hang = hangState{at: noCheck}
	if m.conv.c == nil || m.backend != BackendCompiled {
		return
	}
	end := m.conv.c.final.c.Dyn
	m.hang.at = end + 1
	m.hang.gap = max(end/8, hangMinGap)
}

// HangProved reports whether the last run proved its runaway loop
// exhausts the budget, and how many instructions of it the proof
// therefore did not execute.
func (m *Machine) HangProved() (skipped uint64, ok bool) {
	return m.hang.skipped, m.hang.skipped > 0
}

// backOff ends the current attempt and schedules the next.
func (h *hangState) backOff(dyn uint64) {
	h.at = dyn + h.gap
	if h.at < dyn {
		h.at = noCheck
	}
	h.gap = min(2*h.gap, noCheck/4)
	h.until = 0
}

// tryHangProof runs a due attempt at a compiled block entry: it waits
// (keeping the slow path forced) until the top frame stands at a loop
// header, then tries to prove that loop runaway.
func (m *Machine) tryHangProof(f *frame) {
	h := &m.hang
	if !m.fault.fired || m.fault.skipsLeft > 0 {
		h.backOff(m.C.Dyn)
		return
	}
	if h.until == 0 {
		h.until, h.tries = m.C.Dyn+hangSeek, 0
	} else if m.C.Dyn > h.until {
		h.backOff(m.C.Dyn)
		return
	}
	if f.ip != 0 {
		return
	}
	lf := m.code.loopForest(f.fi)
	li := lf.inner[f.block]
	if li < 0 || lf.loops[li].Header != f.block {
		return
	}
	h.tries++
	switch res, flip := m.proveHang(f, &lf.loops[li]); {
	case res == proofHolds:
		h.at = noCheck
	case res == proofExits && h.tries < hangTries:
		// The attempt goes on once the loop has left its path: at the
		// parent loop's header if it exits then, else at its own, with
		// its new path.
		h.at, h.until = flip+1, flip+hangSeek
	default:
		h.backOff(m.C.Dyn)
	}
}

// proofResult is one attempt's verdict.
type proofResult uint8

const (
	proofFails proofResult = iota // the summary cannot be built or does not last
	proofExits                    // the loop leaves its path (exits, or takes another) before the budget ends
	proofHolds                    // the budget ends inside the loop (iterations skipped if any)
)

// never is an unbounded iteration count.
const never = ^uint64(0)

// aval is a register's value over the iterations j of the loop being
// proved: a + b·j, where a is the register's concrete value at j = 0
// (held in the dry run's register copy), or top when unknown. a and b
// wrap like the machine's own arithmetic, so a + b·j is the value
// modulo 2^64 at every j; the int64 range bound on every varying value
// makes it the exact integer below J, which comparisons and address
// checks rely on.
type aval struct {
	b   int64
	top bool
}

var top = aval{top: true}

// proof is the state of one dry-run iteration.
type proof struct {
	f       frame   // the dry run's frame: a copy of the top frame's registers
	entry   []aval  // register values at the header, per hypothesis
	val     []aval  // register values as the dry run goes
	written []bool  // registers the iteration wrote so far
	first   []bool  // registers the iteration reads before writing them
	iters   uint64  // J: iterations every obligation holds for
	flip    uint64  // first iteration a comparison or branch changes outcome, or never
	path    []int32 // the iteration's segments, one per block visited
	dyn     uint64  // the iteration's Dyn
	region  uint64  // the iteration's Region
	loop    *analysis.Loop
	instrs  int
}

// proveHang tries to prove that the loop whose header the top frame f
// stands at runs its current path until the budget ends, and if so
// skips to the iteration in which it ends. A loop that leaves its path
// first reports the Dyn at which the iteration that leaves it starts.
func (m *Machine) proveHang(f *frame, l *analysis.Loop) (proofResult, uint64) {
	if m.C.Dyn >= m.cfg.MaxInstrs {
		return proofFails, 0 // a runtime charge spent the budget: the run hangs now
	}
	n := len(f.regs)
	p := &proof{
		f:       frame{fn: f.fn, fi: f.fi, inRegion: f.inRegion, regs: make([]uint64, n), ready: make([]uint64, n)},
		entry:   make([]aval, n),
		val:     make([]aval, n),
		written: make([]bool, n),
		first:   make([]bool, n),
		loop:    l,
	}
	// The first pass holds every register invariant; its end values
	// give each register read before written its per-iteration step.
	if r := m.dryRun(f, p); r != proofHolds {
		return r, m.C.Dyn
	}
	for r, rf := range p.first {
		if !rf {
			continue
		}
		if p.val[r].top {
			p.entry[r] = top
		} else {
			p.entry[r].b = int64(p.f.regs[r] - f.regs[r])
		}
	}
	// Refute hypotheses until the summary maps the header onto itself.
	for {
		if r := m.dryRun(f, p); r != proofHolds {
			return r, m.C.Dyn
		}
		stable := true
		for r, rf := range p.first {
			e := &p.entry[r]
			if rf && !e.top && (p.val[r] != *e || p.f.regs[r] != f.regs[r]+uint64(e.b)) {
				*e = top
				stable = false
			}
		}
		if stable {
			break
		}
	}
	if p.dyn == 0 {
		return proofFails, 0
	}
	k := (m.cfg.MaxInstrs - m.C.Dyn) / p.dyn
	if k >= p.iters {
		if p.flip <= k {
			return proofExits, m.C.Dyn + p.flip*p.dyn
		}
		return proofFails, 0
	}
	if k == 0 {
		return proofHolds, 0 // the budget ends in this iteration: nothing to skip
	}
	m.C.Dyn += k * p.dyn
	m.C.Region += k * p.region
	for _, si := range p.path {
		m.segHits[si] += k
	}
	for r, e := range p.entry {
		if p.first[r] && !e.top {
			f.regs[r] += uint64(e.b) * k
		}
	}
	m.conv.c, m.conv.at = nil, noCheck
	m.hang.skipped = k * p.dyn
	return proofHolds, 0
}

// dryRun executes one iteration from the loop header on p's register
// copy under p.entry, recording the path, the iteration's charges and
// the obligations' bound. It writes no memory.
func (m *Machine) dryRun(f *frame, p *proof) proofResult {
	sf := &p.f
	copy(sf.regs, f.regs)
	copy(p.val, p.entry)
	clear(p.written)
	clear(p.first)
	sf.block, sf.ip = f.block, 0
	p.iters, p.flip = never, never
	p.path, p.dyn, p.region, p.instrs = p.path[:0], 0, 0, 0
	for r, e := range p.entry {
		if !e.top && e.b != 0 {
			p.bound(rangeEnd(int64(sf.regs[r]), e.b))
		}
	}
	cf := &m.ccode.fns[f.fi]
	limit := int(min(hangMaxPath, (m.cfg.MaxInstrs-m.C.Dyn)/16))
	for {
		b := sf.block
		if !p.loop.Blocks[b] {
			return proofExits // the loop exits now
		}
		blk := &m.code.fns[f.fi].blocks[b]
		if len(blk.ins) == 0 {
			return proofFails
		}
		si := cf.blocks[b].segAt[0]
		if si < 0 || int(m.ccode.segs[si].count) != len(blk.ins) {
			return proofFails // a call or hook splits the block
		}
		if p.instrs += len(blk.ins); p.instrs > limit {
			return proofFails
		}
		p.path = append(p.path, si)
		p.dyn += blk.uops
		if m.blockInRegion(sf) {
			p.region += uint64(len(blk.ins))
		}
		ops := cf.blocks[b].ops
		for i := range blk.ins {
			if !m.stepProof(p, &blk.ins[i], ops[i]) {
				return proofFails
			}
		}
		if sf.block == f.block {
			return proofHolds
		}
	}
}

// read returns register r's value, noting a read before any write.
func (p *proof) read(r ir.Reg) aval {
	if !p.written[r] {
		p.first[r] = true
	}
	return p.val[r]
}

// bound lowers J to iterations.
func (p *proof) bound(iterations uint64) {
	p.iters = min(p.iters, iterations)
}

// address checks a load or store address: known, in [0, MappedLimit)
// now, and bounding J by the iteration it leaves that range.
func (p *proof) address(v aval, bits uint64) bool {
	a := int64(bits)
	if v.top || a < 0 || a >= MappedLimit {
		return false
	}
	if v.b > 0 {
		p.bound(uint64(MappedLimit-1-a)/uint64(v.b) + 1)
	} else if v.b < 0 {
		p.bound(uint64(a)/(-uint64(v.b)) + 1)
	}
	return true
}

// compare bounds J by the first iteration at which integer comparison
// op of x and y (concrete values xa, ya now) changes its outcome.
func (p *proof) compare(op ir.Op, xa uint64, x aval, ya uint64, y aval) {
	if j := flipIndex(op, xa, x.b, ya, y.b, p.iters); j < p.flip {
		p.flip = j
		p.bound(j)
	}
}

// stepProof executes one instruction of the dry run: concretely on the
// register copy (no memory write), and over the iterations in p.val.
// It reports false when the instruction rejects the proof. op is the
// instruction's compiled closure, which performs the concrete step.
func (m *Machine) stepProof(p *proof, d *dinstr, op cop) bool {
	sf := &p.f
	var x, y, z aval
	switch d.nargs {
	case 3:
		z = p.read(d.a2)
		fallthrough
	case 2:
		y = p.read(d.a1)
		fallthrough
	case 1:
		x = p.read(d.a0)
	}
	var v aval // the destination's value
	switch d.op {
	case ir.OpCall, ir.OpRet, ir.OpRTLoopEnter, ir.OpRTObserve, ir.OpRTLoopExit,
		ir.OpAlloca, ir.OpCheck2:
		return false
	case ir.OpStore:
		// Stored values may be unknown; the dry run leaves memory alone.
		return p.address(x, sf.regs[d.a0])
	case ir.OpLoad:
		if !p.address(x, sf.regs[d.a0]) {
			return false
		}
		v = top
	case ir.OpBr, ir.OpConstInt, ir.OpConstFloat:
	case ir.OpCondBr:
		if x.top {
			return false
		}
		if x.b != 0 {
			p.compare(ir.OpNe, sf.regs[d.a0], x, 0, aval{})
		}
	case ir.OpMov:
		v = x
	case ir.OpAdd:
		v = affine(x, y, x.b+y.b)
	case ir.OpSub:
		v = affine(x, y, x.b-y.b)
	case ir.OpNeg:
		v = affine(x, x, -x.b)
	case ir.OpMul:
		switch {
		case x.top || y.top:
			v = top
		case y.b == 0:
			v.b = x.b * int64(sf.regs[d.a1])
		case x.b == 0:
			v.b = y.b * int64(sf.regs[d.a0])
		default:
			v = top
		}
	case ir.OpShl:
		if y.b != 0 {
			v = top
		} else {
			v = affine(x, y, x.b<<(sf.regs[d.a1]&63))
		}
	case ir.OpDiv, ir.OpRem:
		if y.top || y.b != 0 {
			return false // the divisor could become zero
		}
		v = invariant(x, y, z)
	case ir.OpFToI:
		if x.top || x.b != 0 {
			return false // the operand could leave int64's range
		}
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		if x.top || y.top {
			v = top
		} else if x.b != 0 || y.b != 0 {
			p.compare(d.op, sf.regs[d.a0], x, sf.regs[d.a1], y)
		}
	case ir.OpVote3:
		switch {
		case same(x, y, sf.regs[d.a0], sf.regs[d.a1]) || same(x, z, sf.regs[d.a0], sf.regs[d.a2]):
			v = x
		case same(y, z, sf.regs[d.a1], sf.regs[d.a2]):
			v = y
		default:
			v = invariant(x, y, z)
		}
	default:
		v = invariant(x, y, z)
	}
	// Concretely: a trap here is a trap at j = 0, which the run itself
	// will raise.
	if err := op(m, sf); err != nil {
		return false
	}
	if d.dst != ir.NoReg {
		p.val[d.dst] = v
		p.written[d.dst] = true
		if !v.top && v.b != 0 {
			p.bound(rangeEnd(int64(sf.regs[d.dst]), v.b))
		}
	}
	return true
}

// affine is the value with step b of an operation on x and y that keeps
// affine values affine.
func affine(x, y aval, b int64) aval {
	if x.top || y.top {
		return top
	}
	return aval{b: b}
}

// invariant is the value of an operation that keeps only invariant
// values known: its operands' concrete result, the same every
// iteration.
func invariant(x, y, z aval) aval {
	if x.top || y.top || z.top || x.b != 0 || y.b != 0 || z.b != 0 {
		return top
	}
	return aval{}
}

// same reports whether two known values are one function of j.
func same(x, y aval, xa, ya uint64) bool {
	return !x.top && !y.top && x.b == y.b && xa == ya
}

// rangeEnd returns the first iteration j at which a + b·j (b ≠ 0)
// leaves int64.
func rangeEnd(a, b int64) uint64 {
	var room, step uint64
	if b > 0 {
		room, step = uint64(math.MaxInt64)-uint64(a), uint64(b)
	} else {
		room, step = uint64(a)+1<<63, -uint64(b) // a - MinInt64
	}
	if q := room / step; q < never {
		return q + 1
	}
	return never
}

// at evaluates a + b·j; exact while j is below the value's rangeEnd.
func at(a uint64, b int64, j uint64) int64 { return int64(a + uint64(b)*j) }

// holds evaluates integer comparison op.
func holds(op ir.Op, x, y int64) bool {
	switch op {
	case ir.OpEq:
		return x == y
	case ir.OpNe:
		return x != y
	case ir.OpLt:
		return x < y
	case ir.OpLe:
		return x <= y
	case ir.OpGt:
		return x > y
	default:
		return x >= y
	}
}

// flipIndex returns the first iteration j in [1, hi) at which op(x(j),
// y(j)) differs from op(x(0), y(0)), or never. Both operands are exact
// below hi, so their difference is a linear function of j over the
// integers: an ordering comparison changes at most once, and equality
// holds at most at one point.
func flipIndex(op ir.Op, xa uint64, xb int64, ya uint64, yb int64, hi uint64) uint64 {
	if xb == yb || hi <= 1 {
		return never // the difference is constant
	}
	x0, y0 := int64(xa), int64(ya)
	if op == ir.OpEq || op == ir.OpNe {
		if x0 == y0 {
			return 1
		}
		// Find where the order of x and y turns, then whether they meet
		// there.
		ord := ir.OpLt
		if x0 > y0 {
			ord = ir.OpGt
		}
		j := firstChange(ord, xa, xb, ya, yb, hi)
		if j != never && at(xa, xb, j) == at(ya, yb, j) {
			return j
		}
		return never
	}
	return firstChange(op, xa, xb, ya, yb, hi)
}

// firstChange binary-searches the first j in [1, hi) at which the
// ordering comparison op changes outcome, or returns never.
func firstChange(op ir.Op, xa uint64, xb int64, ya uint64, yb int64, hi uint64) uint64 {
	p0 := holds(op, int64(xa), int64(ya))
	lo, up := uint64(0), hi-1
	if holds(op, at(xa, xb, up), at(ya, yb, up)) == p0 {
		return never
	}
	for up-lo > 1 {
		mid := lo + (up-lo)/2
		if holds(op, at(xa, xb, mid), at(ya, yb, mid)) == p0 {
			lo = mid
		} else {
			up = mid
		}
	}
	return up
}

// loopForest is one function's natural loops, for hang proofs.
type loopForest struct {
	loops []analysis.Loop
	inner []int // block → innermost loop containing it, or -1
}

// loopForest returns function fi's loops, finding every function's on
// first use: only replicas that attempt a hang proof need them.
func (c *Code) loopForest(fi int) *loopForest {
	c.loopsOnce.Do(func() {
		c.loops = make([]loopForest, len(c.mod.Funcs))
		for fi, fn := range c.mod.Funcs {
			n := len(fn.Blocks)
			cfg := &analysis.CFG{Succs: make([][]int, n), Preds: make([][]int, n)}
			for bi := range fn.Blocks {
				if ins := fn.Blocks[bi].Instrs; len(ins) > 0 {
					for _, s := range ins[len(ins)-1].Blocks {
						cfg.Succs[bi] = append(cfg.Succs[bi], s)
						cfg.Preds[s] = append(cfg.Preds[s], bi)
					}
				}
			}
			var loops []analysis.Loop
			if n > 0 {
				loops = analysis.FindLoops(cfg, analysis.Dominators(cfg))
			}
			c.loops[fi] = loopForest{loops: loops, inner: analysis.InnermostLoop(n, loops)}
		}
	})
	return &c.loops[fi]
}
