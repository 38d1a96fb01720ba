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
//     (top). Loads are unknown; only add, sub, mov and multiply by an
//     invariant keep a varying value affine. Registers the iteration
//     reads before writing must come back as (a+b, b) — otherwise they
//     become unknown and the dry run repeats.
//   - A loop nested in the one being proved is one step of the dry run.
//     At its header the dry run summarises it the same way, over its
//     own index i, with values a + b·j + c·i: its exit iteration T is
//     the first at which a comparison in it changes outcome, and the
//     dry run steps iteration T concretely, which must leave the loop.
//     Then T iterations apply at once: inner-affine registers move to
//     a + c·T, every other register the inner loop writes becomes top,
//     and the charges, the path's (segment, multiplicity) pairs among
//     them, grow by T iterations' worth. The step nests, up to
//     hangMaxDepth loops, and counts its dry-run work, not T times the
//     inner iteration, against the path cap. A nested loop whose
//     summary fails, or that leaves in its first iteration, fails the
//     dry run.
//   - Obligations bound the number J of iterations the summary holds:
//     every branch operand and address is known; no comparison or
//     branch changes its j = 0 outcome; every address stays in
//     [0, MappedLimit); no varying value leaves int64. Inside a nested
//     loop, a comparison may vary with one loop's index only: its own
//     loop's, where it sets T, so that T is the same in every outer
//     iteration, or an outer loop's, whose J it bounds. Ranges must hold
//     over every index at once: the nested loop hands its parent each
//     such obligation at i = 0 and at i = T, which bound the linear
//     value over the whole (j, i) range. Calls, returns, runtime hooks,
//     Alloca and Check2 reject the loop, as do Div, Rem and FToI unless
//     their trapping operand is invariant and safe.
//   - If the budget runs out in iteration k* < J, the replica adds k*
//     iterations' worth of Dyn, Region and segment counts, moves each
//     affine register to a + b·k*, and resumes normal dispatch, which
//     raises the HangError at the exact instruction a from-zero run
//     would. Registers the summary calls unknown, and memory, now hold
//     stale values, which reach nothing but other unknown values and
//     stored data before the run ends; the convergence check, which
//     would compare them, is disarmed. A dry run that reaches the
//     budget's end before it gets back to the header proves the path
//     to the crossing as well: the attempt holds, skipping nothing.
//
// An attempt tries the first loop header the top frame reaches, which
// is the innermost loop around it. A loop whose proof shows it leaves
// its path before the budget ends hands the attempt on without
// executing it: the dry run takes the rest of that loop as one step,
// goes on to its parent's header, and proves the parent there, on the
// copy; only a parent proof that holds is committed, together with the
// rest of the loop. Failing that, the attempt goes on once the loop
// has left its path. After a proof holds, the next attempt is due at
// once: the budget may end inside a long nested loop of the iteration
// reached, whose own proof skips to the crossing instruction. An
// attempt that fails, or tries hangTries loops or waits hangSeek
// instructions without a proof, backs off exponentially. The reference
// engine never proves: it stays the oracle the differential tests
// compare against.

// hangState schedules one replica's hang-proof attempts.
type hangState struct {
	at    uint64 // Dyn at which the next attempt is due, or noCheck
	gap   uint64 // Dyn a failed attempt waits before the next; doubles
	until uint64 // the attempt under way gives up past this Dyn; 0 when none is
	tries int    // loops the attempt under way has tried
}

const (
	// hangMaxPath caps the instructions one dry-run iteration may
	// execute; so does a 16th of the budget left, so that a dry run
	// costs at most a 16th of what it may skip.
	hangMaxPath = 1 << 18
	// hangSeek is how many instructions an attempt may take to reach
	// loop headers, and hangTries how many loops it may try.
	hangSeek  = 1 << 16
	hangTries = 4
	// hangMinGap is the shortest back-off after a failed attempt.
	hangMinGap = 1 << 12
	// hangMaxDepth caps the loops a dry run is inside at once: the loop
	// being proved and the nested loops it takes as one step.
	hangMaxDepth = 4
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
	switch res, flip := m.proveHang(f, lf, li); {
	case res == proofHolds:
		// The budget ends in the iteration the frame now starts; a loop
		// nested in it may hold the crossing, so the next attempt is due
		// at the next block.
		h.at, h.until, h.tries = m.C.Dyn+1, m.C.Dyn+hangSeek, 0
	case res == proofExits && h.tries < hangTries:
		// The attempt goes on once the loop has left its path: at the
		// parent loop's header if it exits then, else at its own, with
		// its new path.
		h.at, h.until = flip+1, flip+hangSeek
	default:
		h.backOff(m.C.Dyn)
	}
}

// proofResult is one dry run's verdict.
type proofResult uint8

const (
	proofFails proofResult = iota // the summary cannot be built or does not last
	proofExits                    // the loop leaves its path (exits, or takes another) before the budget ends
	proofHolds                    // the budget ends inside the loop (iterations skipped if any)
	proofSpent                    // the budget ends inside the dry run, before it gets back to the header
)

// never is an unbounded iteration count.
const never = ^uint64(0)

// steps holds a value's change per iteration of each loop a dry run is
// inside: index 0 is the loop being proved, index d the loop nested d
// deep in it.
type steps [hangMaxDepth]int64

// aval is a register's value over the iterations of the loops a dry run
// is inside: a + Σ b[d]·i_d, where a is the register's concrete value
// at every index 0 (held in the dry run's register copy), or top when
// unknown. a and b wrap like the machine's own arithmetic, so the
// value is exact modulo 2^64 at every index; the int64 range bound on
// every varying value makes it the exact integer within the bounds,
// which comparisons and address checks rely on.
type aval struct {
	b   steps
	top bool
}

var top = aval{top: true}

// zero reports whether the value is invariant.
func (s *steps) zero() bool { return *s == steps{} }

// outer reports whether the value varies with a loop outside level d.
func (s *steps) outer(d int) bool {
	for _, b := range s[:d] {
		if b != 0 {
			return true
		}
	}
	return false
}

// segRun is a path element: a segment and how often it runs.
type segRun struct {
	seg int32
	n   uint64
}

// dutyKind is what an obligation requires.
type dutyKind uint8

const (
	dutyRange   dutyKind = iota // x stays in int64
	dutyAddress                 // x stays in [0, MappedLimit)
	dutyCompare                 // op(x, y) keeps its outcome
)

// duty is an obligation on values that vary with several loops' indices:
// x (and y, a comparison's second operand) at every index 0, and their
// steps.
type duty struct {
	kind   dutyKind
	op     ir.Op
	x, y   uint64
	xb, yb steps
}

// level is one loop of the nest a dry run is inside.
type level struct {
	loop    *analysis.Loop
	start   []uint64 // the registers at the header, at every index 0
	base    []aval   // the values at the header before this loop's hypotheses
	entry   []aval   // the values at the header, per hypothesis
	written []bool   // registers the iteration wrote so far
	first   []bool   // registers the iteration reads before writing them
	iters   uint64   // iterations every range and address obligation holds for
	flip    uint64   // first iteration a comparison or branch changes outcome, or never
	path    []segRun // the iteration's segments
	dyn     uint64   // the iteration's Dyn
	region  uint64   // the iteration's Region
	duties  []duty   // obligations for the loops outside this one
	nested  bool     // the iteration took a nested loop as one step
}

// bound lowers the level's iteration bound.
func (lv *level) bound(iterations uint64) {
	lv.iters = min(lv.iters, iterations)
}

// clearIteration resets what one iteration's dry run accumulates.
func (lv *level) clearIteration() {
	clear(lv.written)
	clear(lv.first)
	lv.iters, lv.flip = never, never
	lv.path, lv.duties = lv.path[:0], lv.duties[:0]
	lv.dyn, lv.region, lv.nested = 0, 0, false
}

// proof is the state of one attempt's dry runs.
type proof struct {
	f      frame  // the dry run's frame: a copy of the top frame's registers
	val    []aval // register values as the dry run goes
	lv     [hangMaxDepth]level
	depth  int // the level whose loop the dry run is in
	instrs int // instructions the current dry run executed
	limit  int // cap on instrs
	rem    uint64
	// pre is what the dry run took as one step before the header of
	// the loop being proved: the rest of the loops it handed on from.
	pre struct {
		dyn, region uint64
		path        []segRun
		nested      bool
	}
}

// newProof readies the machine's proof buffers for an attempt from the
// top frame f.
func (m *Machine) newProof(f *frame) *proof {
	n := len(f.regs)
	p := m.hangp
	if p == nil || cap(p.val) < n {
		p = &proof{val: make([]aval, n), f: frame{regs: make([]uint64, n)}}
		for d := range p.lv {
			lv := &p.lv[d]
			lv.start, lv.base, lv.entry = make([]uint64, n), make([]aval, n), make([]aval, n)
			lv.written, lv.first = make([]bool, n), make([]bool, n)
		}
		m.hangp = p
	}
	p.val = p.val[:n]
	clear(p.val)
	p.f = frame{fn: f.fn, fi: f.fi, inRegion: f.inRegion, regs: p.f.regs[:n]}
	copy(p.f.regs, f.regs)
	for d := range p.lv {
		lv := &p.lv[d]
		lv.start, lv.base, lv.entry = lv.start[:n], lv.base[:n], lv.entry[:n]
		lv.written, lv.first = lv.written[:n], lv.first[:n]
	}
	p.rem = m.cfg.MaxInstrs - m.C.Dyn
	p.limit = int(min(hangMaxPath, p.rem/16))
	p.pre.dyn, p.pre.region, p.pre.path, p.pre.nested = 0, 0, p.pre.path[:0], false
	return p
}

// proveHang tries to prove that the loop lf.loops[li], whose header the
// top frame f stands at, or a loop around it, runs its current path
// until the budget ends, and if so skips to the iteration in which it
// ends. A loop that leaves its path first, and hands on to no loop
// around it that holds, reports the Dyn at which the iteration that
// leaves it starts.
func (m *Machine) proveHang(f *frame, lf *loopForest, li int) (proofResult, uint64) {
	if m.C.Dyn >= m.cfg.MaxInstrs {
		return proofFails, 0 // a runtime charge spent the budget: the run hangs now
	}
	p := m.newProof(f)
	l := &lf.loops[li]
	res, k := m.proveLoop(p, l)
	if res == proofExits {
		exit := m.C.Dyn + k*p.lv[0].dyn
		for tries := 1; res == proofExits && l.Parent >= 0 && tries < hangTries; tries++ {
			parent := &lf.loops[l.Parent]
			if !m.handOn(p, l, parent) {
				break
			}
			l = parent
			res, k = m.proveLoop(p, l)
		}
		if res != proofHolds {
			return proofExits, exit
		}
	}
	if res == proofHolds {
		m.commit(f, p, l, k)
	}
	return res, 0
}

// proveLoop proves loop l from the dry run's state at its header: it
// reports proofHolds with the iterations k the budget leaves before the
// iteration it ends in, or proofExits with the iteration that leaves
// the path.
func (m *Machine) proveLoop(p *proof, l *analysis.Loop) (proofResult, uint64) {
	lv := p.enter(0, l)
	switch r := m.converge(p, 0); r {
	case proofSpent:
		return proofHolds, 0
	case proofHolds:
	default:
		return r, 0
	}
	if lv.dyn == 0 {
		return proofFails, 0
	}
	k := p.rem / lv.dyn
	if k >= min(lv.iters, lv.flip) {
		if lv.flip <= k {
			return proofExits, lv.flip
		}
		return proofFails, 0
	}
	return proofHolds, k
}

// handOn takes the rest of loop l, whose proof showed it leaves its
// path before the budget ends, as one step of a dry run from its header
// on to the header of its parent loop, where the parent's proof starts.
// It reports false if the run leaves the parent, fails, or spends the
// budget before it gets there.
func (m *Machine) handOn(p *proof, l, parent *analysis.Loop) bool {
	lv := &p.lv[0]
	copy(p.f.regs, lv.start)
	copy(p.val, lv.base)
	p.f.block, p.f.ip = l.Header, 0
	lv.loop = parent
	lv.clearIteration()
	p.instrs = 0
	if m.walk(p, 0, parent, false) != proofHolds {
		return false
	}
	p.pre.dyn += lv.dyn
	p.pre.region += lv.region
	p.pre.path = append(p.pre.path, lv.path...)
	p.pre.nested = p.pre.nested || lv.nested
	p.rem -= lv.dyn
	return true
}

// commit applies a holding proof of loop l to the top frame f: the
// loops handed on from, then k iterations of l.
func (m *Machine) commit(f *frame, p *proof, l *analysis.Loop, k uint64) {
	lv := &p.lv[0]
	skip := p.pre.dyn + k*lv.dyn
	if skip == 0 {
		return
	}
	m.C.Dyn += skip
	m.C.Region += p.pre.region + k*lv.region
	for _, s := range p.pre.path {
		m.segHits[s.seg] += s.n
	}
	for _, s := range lv.path {
		m.segHits[s.seg] += k * s.n
	}
	copy(f.regs, lv.start)
	for r, e := range lv.entry {
		if lv.first[r] && !e.top {
			f.regs[r] += uint64(e.b[0]) * k
		}
	}
	f.block, f.ip, f.nseg = l.Header, 0, -1
	m.conv.c, m.conv.at = nil, noCheck
	m.work.HangSkipped += skip
	m.work.HangNested = m.work.HangNested || p.pre.nested || lv.nested
}

// enter starts level d's summary of loop l at the dry run's state.
func (p *proof) enter(d int, l *analysis.Loop) *level {
	lv := &p.lv[d]
	lv.loop = l
	copy(lv.start, p.f.regs)
	copy(lv.base, p.val)
	copy(lv.entry, p.val)
	return lv
}

// converge builds level d's summary: it refutes hypotheses until the
// summary maps the loop's header onto itself. The first dry run holds
// every register invariant in the loop's index; its end values give
// each register read before written its step. A first dry run that
// does not get back to the header reports why.
func (m *Machine) converge(p *proof, d int) proofResult {
	lv := &p.lv[d]
	if r := m.iterate(p, d); r != proofHolds {
		return r
	}
	for r, rf := range lv.first {
		if !rf || lv.entry[r].top {
			continue
		}
		if p.val[r].top {
			lv.entry[r] = top
		} else {
			lv.entry[r].b[d] = int64(p.f.regs[r] - lv.start[r])
		}
	}
	for {
		if m.iterate(p, d) != proofHolds {
			return proofFails
		}
		stable := true
		for r, rf := range lv.first {
			e := &lv.entry[r]
			if rf && !e.top && (p.val[r] != *e || p.f.regs[r] != lv.start[r]+uint64(e.b[d])) {
				*e = top
				stable = false
			}
		}
		if stable {
			return proofHolds
		}
	}
}

// iterate dry-runs one iteration of level d's loop from its header
// under the level's hypotheses, recording the path, the iteration's
// charges and the obligations' bounds. It writes no memory.
func (m *Machine) iterate(p *proof, d int) proofResult {
	lv := &p.lv[d]
	copy(p.f.regs, lv.start)
	copy(p.val, lv.entry)
	p.f.block, p.f.ip = lv.loop.Header, 0
	lv.clearIteration()
	if d == 0 {
		p.instrs = 0
	}
	p.depth = d
	for r, e := range lv.entry {
		if !e.top && e.b[d] != 0 {
			p.oblige(duty{kind: dutyRange, x: p.f.regs[r], xb: e.b})
		}
	}
	return m.walk(p, d, lv.loop, false)
}

// walk dry-runs from the frame's block at level d until the run gets
// back to loop l's header (proofHolds), leaves l (proofExits) or
// reaches the budget's end (proofSpent). A loop nested in l whose
// header it reaches is one step (summarise). With exit set the walk is
// a summarised loop's exit iteration, which must leave l before its
// header comes round again.
func (m *Machine) walk(p *proof, d int, l *analysis.Loop, exit bool) proofResult {
	sf := &p.f
	lf := m.code.loopForest(sf.fi)
	cf := &m.ccode.fns[sf.fi]
	lv := &p.lv[d]
	var used uint64 // Dyn of the iterations around this one so far
	for i := range d {
		used += p.lv[i].dyn
	}
	for {
		p.depth = d
		b := sf.block
		if !l.Blocks[b] {
			return proofExits // the loop exits now
		}
		if li := lf.inner[b]; b != l.Header && li >= 0 && lf.loops[li].Header == b {
			if r := m.summarise(p, d+1, &lf.loops[li]); r != proofHolds {
				return r
			}
		} else if !m.stepBlock(p, lv, cf, b) {
			return proofFails
		}
		if used+lv.dyn > p.rem {
			return proofSpent
		}
		if sf.block == l.Header {
			if exit {
				return proofFails
			}
			return proofHolds
		}
	}
}

// stepBlock dry-runs block b of the frame at level lv.
func (m *Machine) stepBlock(p *proof, lv *level, cf *cfunc, b int) bool {
	blk := &m.code.fns[p.f.fi].blocks[b]
	if len(blk.ins) == 0 {
		return false
	}
	si := cf.blocks[b].segAt[0]
	if si < 0 || int(m.ccode.segs[si].count) != len(blk.ins) {
		return false // a call or hook splits the block
	}
	if p.instrs += len(blk.ins); p.instrs > p.limit {
		return false
	}
	lv.path = append(lv.path, segRun{si, 1})
	lv.dyn += blk.uops
	if m.blockInRegion(&p.f) {
		lv.region += uint64(len(blk.ins))
	}
	ops := cf.blocks[b].ops
	for i := range blk.ins {
		if !m.stepProof(p, &blk.ins[i], ops[i]) {
			return false
		}
	}
	return true
}

// summarise takes loop l, whose header the dry run at level c-1 stands
// at, as one step: it proves l's iterations at level c, applies the T
// before its exit iteration at once, and dry-runs the exit iteration at
// level c-1. A loop whose first iteration leaves it has no summary:
// the step fails.
func (m *Machine) summarise(p *proof, c int, l *analysis.Loop) proofResult {
	if c >= hangMaxDepth {
		return proofFails
	}
	sf := &p.f
	lv := p.enter(c, l)
	switch r := m.converge(p, c); r {
	case proofHolds:
	case proofExits:
		return proofFails
	default:
		return r
	}
	var used uint64
	for i := range c {
		used += p.lv[i].dyn
	}
	if n := min(lv.flip, lv.iters); n > (p.rem-used)/lv.dyn {
		return proofSpent // the budget ends in one of the iterations proved
	}
	if lv.flip >= lv.iters {
		return proofFails
	}
	t := lv.flip
	copy(sf.regs, lv.start)
	for r := range sf.regs {
		switch e := lv.entry[r]; {
		case lv.first[r] && !e.top:
			sf.regs[r] += uint64(e.b[c]) * t
			e.b[c] = 0
			p.val[r] = e
		case lv.written[r]:
			p.val[r] = top
		default:
			p.val[r] = lv.base[r]
		}
	}
	if !p.fold(c, t) {
		return proofFails
	}
	sf.block, sf.ip = l.Header, 0
	if r := m.walk(p, c-1, l, true); r != proofExits {
		if r == proofSpent {
			return r
		}
		return proofFails
	}
	p.lv[c-1].nested = true
	return proofHolds
}

// fold adds t iterations of level c to level c-1: their charges and
// path, and level c's obligations for the loops outside it.
func (p *proof) fold(c int, t uint64) bool {
	lv, pv := &p.lv[c], &p.lv[c-1]
	pv.dyn += t * lv.dyn
	pv.region += t * lv.region
	for _, s := range lv.path {
		pv.path = append(pv.path, segRun{s.seg, t * s.n})
	}
	p.depth = c - 1
	for _, u := range lv.duties {
		// A comparison keeps its outcome over level c's iterations; a
		// linear value lies within a range over iterations [0, t] if it
		// does at both ends.
		bc := u.xb[c]
		u.xb[c], u.yb[c] = 0, 0
		if !p.oblige(u) {
			return false
		}
		if u.kind != dutyCompare && bc != 0 {
			u.x += uint64(bc) * t
			if !p.oblige(u) {
				return false
			}
		}
	}
	return true
}

// oblige imposes obligation u at the current level: it bounds the
// level's iterations or flip by it, and keeps it for the loops outside
// if it varies with their indices. It reports false when u cannot hold.
func (p *proof) oblige(u duty) bool {
	d := p.depth
	lv := &p.lv[d]
	switch u.kind {
	case dutyAddress:
		a := int64(u.x)
		if a < 0 || a >= MappedLimit {
			return false
		}
		if b := u.xb[d]; b > 0 {
			lv.bound(uint64(MappedLimit-1-a)/uint64(b) + 1)
		} else if b < 0 {
			lv.bound(uint64(a)/(-uint64(b)) + 1)
		}
	case dutyRange:
		if b := u.xb[d]; b != 0 {
			lv.bound(rangeEnd(int64(u.x), b))
		}
	case dutyCompare:
		// The outcome may change with one loop's index only.
		in := -1
		for i := 0; i <= d; i++ {
			if u.xb[i] != u.yb[i] {
				if in >= 0 {
					return false
				}
				in = i
			}
		}
		switch {
		case in < 0:
		case in == d:
			lv.flip = min(lv.flip, flipIndex(u.op, u.x, u.xb[d], u.y, u.yb[d], lv.iters))
		default:
			lv.duties = append(lv.duties, u)
		}
		return true
	}
	if u.xb.outer(d) {
		lv.duties = append(lv.duties, u)
	}
	return true
}

// read returns register r's value, noting a read before any write.
func (p *proof) read(r ir.Reg) aval {
	for d := 0; d <= p.depth; d++ {
		if !p.lv[d].written[r] {
			p.lv[d].first[r] = true
		}
	}
	return p.val[r]
}

// write sets register r's value.
func (p *proof) write(r ir.Reg, v aval) {
	p.val[r] = v
	for d := 0; d <= p.depth; d++ {
		p.lv[d].written[r] = true
	}
}

// address checks a load or store address: known, in [0, MappedLimit)
// now, and bounding the iterations by where it leaves that range.
func (p *proof) address(v aval, bits uint64) bool {
	return !v.top && p.oblige(duty{kind: dutyAddress, x: bits, xb: v.b})
}

// compare bounds the iterations by the first at which integer
// comparison op of x and y (concrete values xa, ya now) changes its
// outcome.
func (p *proof) compare(op ir.Op, xa uint64, x aval, ya uint64, y aval) bool {
	return p.oblige(duty{kind: dutyCompare, op: op, x: xa, xb: x.b, y: ya, yb: y.b})
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
		if x.top || !p.compare(ir.OpNe, sf.regs[d.a0], x, 0, aval{}) {
			return false
		}
	case ir.OpMov:
		v = x
	case ir.OpAdd:
		v = affine(x, y, axpy(1, y.b, x.b))
	case ir.OpSub:
		v = affine(x, y, axpy(-1, y.b, x.b))
	case ir.OpMul:
		switch {
		case x.top || y.top:
			v = top
		case y.b.zero():
			v.b = axpy(int64(sf.regs[d.a1]), x.b, steps{})
		case x.b.zero():
			v.b = axpy(int64(sf.regs[d.a0]), y.b, steps{})
		default:
			v = top
		}
	case ir.OpDiv, ir.OpRem:
		if y.top || !y.b.zero() {
			return false // the divisor could become zero
		}
		v = invariant(x, y, z)
	case ir.OpFToI:
		if x.top || !x.b.zero() {
			return false // the operand could leave int64's range
		}
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		if x.top || y.top {
			v = top
		} else if !p.compare(d.op, sf.regs[d.a0], x, sf.regs[d.a1], y) {
			return false
		}
	default:
		v = invariant(x, y, z)
	}
	// Concretely: a trap here is a trap at every index 0, which the run
	// itself will raise.
	if err := op(m, sf); err != nil {
		return false
	}
	if d.dst != ir.NoReg {
		p.write(d.dst, v)
		if !v.top && !v.b.zero() {
			p.oblige(duty{kind: dutyRange, x: sf.regs[d.dst], xb: v.b})
		}
	}
	return true
}

// affine is the value with steps b of an operation on x and y that
// keeps affine values affine.
func affine(x, y aval, b steps) aval {
	if x.top || y.top {
		return top
	}
	return aval{b: b}
}

// axpy returns k·x + y, wrapping like the machine's arithmetic.
func axpy(k int64, x, y steps) steps {
	for i := range y {
		y[i] += k * x[i]
	}
	return y
}

// invariant is the value of an operation that keeps only invariant
// values known: its operands' concrete result, the same every
// iteration.
func invariant(x, y, z aval) aval {
	if x.top || y.top || z.top || !x.b.zero() || !y.b.zero() || !z.b.zero() {
		return top
	}
	return aval{}
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
