package machine

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"rskip/internal/analysis"
	"rskip/internal/ir"
)

// Convergence early-exit. The machine is deterministic, so once an
// injected replica's fault has fired (and any skip burst has drained),
// a replica whose full state equals the clean run's at the same point
// runs the rest of the clean run instruction for instruction. It can
// stop there and take the clean run's end: counters, return value,
// memory (so the instance reads the golden output) and hook state are
// exactly what the from-zero run would produce, and the fault
// attribution, fixed when the fault fired, stays the replica's own.
//
// A replica with Config.Converge checks at top-level dispatch
// boundaries only — never inside a runtime hook's recompute call,
// whose Go-side state no snapshot holds. A check is due at the first
// boundary where the replica's Region reaches the next clean
// snapshot's; on the compiled engine the existing regionTrigger
// compare raises it, so the fast path gains no branch. "Full state" is
// what a Snapshot holds except faultFrameFn, with three refinements
// that keep it exact:
//
//   - Registers compare only where liveness (analysis.SolveLiveness)
//     says some path may read them: at the frame's (block, ip), and for
//     a caller frame at its return point without the callee's retDst,
//     which the return overwrites.
//   - A strike that flips one register nothing reads before it is
//     written (a register-file, result-bit or destination multi-bit
//     strike on a dead register) leaves the replica converged the
//     moment it fires; it exits at its next top-level boundary.
//   - Copy isolation. Under TMR a struck copy is outvoted but often
//     never re-synced, so its frame's registers never again equal the
//     clean run's. When everything else matches, the registers that
//     differ may still be isolated: a forward may-taint walk over each
//     frame's function (isolates), from where the frame stands, finds
//     that no path lets them reach anything but other registers and
//     single vote operands. The replica then runs the clean run's
//     instruction stream: by induction on its steps, its untainted
//     registers equal the clean run's, no branch, address, store,
//     call, return, hook, check or trap reads a tainted one, and a
//     vote with one tainted operand takes the other two, which agree.
//     They agree only where the clean run's vote did, so the rule is
//     off for a capture whose run cast any split vote (Capture.split).
//   - Dead memory. A strike that corrupts a stored value, or a store's
//     address, leaves memory differing in a word or two while the rest
//     of the state rejoins the clean run's. When everything else
//     matches (registers equal or isolated), memory may still differ
//     in up to deadWordCap words, provided the clean run reads none of
//     them after the snapshot the check compares against: the
//     capture's record (memRecord) holds when the clean run last read
//     and last wrote each word, counting every load of both engines
//     and of the runtime hooks. By induction on the replica's steps
//     every load reads an address the clean run reads at the same
//     step, so never a differing word, and gets the clean run's value;
//     every store writes the clean run's value to the clean run's
//     address. The replica therefore runs the clean remainder
//     instruction for instruction, and its memory at the end is the
//     clean run's final memory except in the differing words the clean
//     remainder never writes, which keep the replica's values:
//     jumpToEnd stores them back, so an SDC stays in the output. Once
//     a check finds more differing words than the cap, the run's later
//     checks reject at once instead of scanning its memory again.
//
// A failed check notes in Work.Reject which part of the state failed
// it; the last failed check's part stands.
//
// The property test in internal/fault proves converged replicas equal
// from-zero ones on both engines.

// errConverged unwinds a converged replica's top-level dispatch loop;
// finish turns it into the clean run's end, so it never escapes.
var errConverged = errors.New("machine: replica converged")

// noCheck is a check position no run reaches.
const noCheck = ^uint64(0)

// convState is one replica's convergence check.
type convState struct {
	c    *Capture // the clean run's; nil when the run does not check
	next int      // the snapshot the next check compares against
	at   uint64   // Region at which that check is due, or noCheck
	dead bool     // the fault struck a dead register: converged already
}

// armConvergence prepares the check for a run with cfg: only untimed,
// untraced replicas whose fault is armed and whose budget covers the
// whole clean run can take the clean run's end.
func (m *Machine) armConvergence() {
	m.conv = convState{at: noCheck}
	m.kept, m.overCap = m.kept[:0], false
	c := m.cfg.Converge
	if c == nil || c.final == nil || !m.fault.armed || m.cfg.Trace != nil || m.cfg.RegionTrace != nil ||
		c.final.c.Dyn > m.cfg.MaxInstrs {
		return
	}
	if c.final.mod != m.Mod {
		panic("machine: Config.Converge holds a capture of a different module")
	}
	if !m.pl.off {
		panic("machine: Config.Converge needs an Untimed machine")
	}
	m.conv.c = c
}

// seek makes the first snapshot at or past region the next check.
func (cv *convState) seek(region uint64) {
	snaps := cv.c.snaps
	cv.next = sort.Search(len(snaps), func(i int) bool { return snaps[i].c.Region >= region })
	cv.at = noCheck
	if cv.next < len(snaps) {
		cv.at = snaps[cv.next].c.Region
	}
}

// struckDead marks a replica converged when its fault flipped register
// r — instruction ip of function fi's block, NoReg when nothing was
// flipped — while r was dead: live-in of the struck instruction for a
// flip before it executes (after is false), live-out for one after.
// Source-operand, opcode and skip strikes never come here: the first
// hits a register the instruction reads, the others change what the
// instruction does rather than one bit of one register.
func (m *Machine) struckDead(fi, block, ip int, r ir.Reg, after bool) {
	if m.conv.c == nil {
		return
	}
	if after {
		ip++
	}
	if !isLive(m.code.liveAt(fi, block, ip), r) {
		m.conv.dead = true
		m.conv.at = 0
	}
}

// converged runs a due check at a top-level dispatch boundary: it
// reports whether the replica has rejoined the clean run, and
// otherwise moves the check to the next snapshot.
func (m *Machine) converged() bool {
	cv := &m.conv
	if m.fault.skipsLeft > 0 {
		return false // the burst is still suppressing instructions
	}
	if cv.dead {
		return true
	}
	if m.converges(cv.c.snaps[cv.next], !cv.c.split, &cv.c.rec) {
		return true
	}
	cv.seek(m.C.Region + 1)
	return false
}

// jumpToEnd installs the clean run's final state in a converged
// replica, stores back the differing memory words it keeps, and notes
// the remainder it took in Work. The final counters already hold every
// instruction, so the compiled engine's unfolded segment counts are
// discarded.
func (m *Machine) jumpToEnd() {
	end := m.conv.c.final
	m.work.Converged = end.c.Dyn - m.C.Dyn
	clear(m.segHits)
	m.restore(end)
	for _, w := range m.kept {
		_ = m.Mem.StoreWord(w.addr, w.val) // a differing word is mapped: the store cannot fault
	}
}

// deadWordCap bounds how many differing memory words a converging
// replica may carry to the clean run's end.
const deadWordCap = 64

// memWord is a memory word and its value.
type memWord struct {
	addr int64
	val  uint64
}

// converges reports whether the run, standing where snapshot s was
// taken, runs the rest of the clean run: its state equals s, or
// differs only in registers each frame's isolates walk accepts (with
// isolate; Work.Isolated notes it) and in at most deadWordCap memory
// words that rec, the capture's record, shows the clean run never
// reads after s (a nil rec allows none; Work.DeadWords counts them,
// and kept holds those the clean remainder does not write either;
// overCap notes a check that found more). A failed check notes in
// Work.Reject what failed. Cheapest comparison
// first: counters, frame positions, the other control state, the
// registers that differ, hook state, memory up to its first differing
// word, the walks, and last the rest of the memory.
func (m *Machine) converges(s *Snapshot, isolate bool, rec *memRecord) bool {
	reject := func(r Reject) bool {
		m.work.Reject = r
		return false
	}
	// The eager counters decide most mismatches before the lazy
	// per-segment counts are folded in.
	if m.C.Dyn != s.c.Dyn {
		return reject(RejectDyn)
	}
	if m.C.Region != s.c.Region || m.C.Runtime != s.c.Runtime {
		return reject(RejectCounters)
	}
	if m.segHits != nil {
		m.foldSegCounters()
	}
	if m.C != s.c {
		return reject(RejectCounters)
	}
	if !m.samePositions(s.frames) {
		return reject(RejectPositions)
	}
	if m.lastRet != s.lastRet || m.hookOp != s.hookOp ||
		m.overrideActive != s.overrideActive || m.overrideAddr != s.overrideAddr || m.overrideVal != s.overrideVal {
		return reject(RejectControl)
	}
	diff := m.diffRegs(s.frames)
	if diff != nil && !isolate {
		return reject(RejectRegisters)
	}
	if h, ok := m.cfg.Hooks.(StatefulHooks); ok != (s.hooks != nil) || ok && !h.SameState(s.hooks) {
		return reject(RejectHooks)
	}
	// read reports whether the clean run reads the word at addr after s.
	read := func(addr int64) bool { return rec == nil || rec.at(addr).read >= s.epoch }
	first := int64(-1) // the first differing word's address
	if !m.Mem.eachDiff(&s.mem, func(addr int64) bool { first = addr; return false }) && first < 0 {
		return reject(RejectMemoryOther)
	}
	if first >= 0 && read(first) {
		return reject(RejectMemoryLive)
	}
	if first >= 0 && m.overCap {
		return reject(RejectMemoryOther)
	}
	for i, d := range diff {
		if f := &m.fr[i]; d != nil && !m.code.isolates(f.fi, f.block, f.ip, d) {
			return reject(RejectWalk)
		}
	}
	m.kept = m.kept[:0]
	n := 0
	if first >= 0 && !m.Mem.eachDiff(&s.mem, func(addr int64) bool {
		if n++; n > deadWordCap {
			m.overCap = true
			return reject(RejectMemoryOther)
		}
		if read(addr) {
			return reject(RejectMemoryLive)
		}
		if rec.at(addr).write < s.epoch {
			v, _ := m.Mem.LoadWord(addr) // a differing word is mapped: the load cannot fault
			m.kept = append(m.kept, memWord{addr, v})
		}
		return true
	}) {
		return false
	}
	m.work.Isolated, m.work.DeadWords = diff != nil, n
	return true
}

// samePositions compares everything of the frame stack but the
// registers.
func (m *Machine) samePositions(saved []frameState) bool {
	if len(m.fr) != len(saved) {
		return false
	}
	for i := range m.fr {
		f, sf := &m.fr[i], &saved[i]
		if f.fi != sf.fi || f.block != sf.block || f.ip != sf.ip || f.stackMark != sf.stackMark ||
			f.retDst != sf.retDst || f.inRegion != sf.inRegion ||
			(f.savedArgs == nil) != (sf.savedArgs == nil) || !slices.Equal(f.savedArgs, sf.savedArgs) {
			return false
		}
	}
	return true
}

// diffRegs returns, per frame, the registers that differ from the
// saved ones where liveness (analysis.SolveLiveness) says some path
// may read them — at the frame's (block, ip), and for a caller frame
// at its return point without the callee's retDst, which the return
// overwrites — as a set of the liveness solution's width, nil for a
// frame without any; and nil when no frame has any.
func (m *Machine) diffRegs(saved []frameState) [][]uint64 {
	var diff [][]uint64
	for i := range m.fr {
		f := &m.fr[i]
		ret := ir.NoReg
		if i+1 < len(m.fr) {
			ret = m.fr[i+1].retDst
		}
		set := m.code.liveAt(f.fi, f.block, f.ip)
		if !keepDiffering(set, f.regs, saved[i].regs, ret) {
			continue
		}
		if diff == nil {
			diff = make([][]uint64, len(m.fr))
		}
		diff[i] = set
	}
	return diff
}

// keepDiffering reduces the register set to the registers in it,
// except skip, on which a and b differ, and reports whether any is
// left.
func keepDiffering(set, a, b []uint64, skip ir.Reg) bool {
	left := false
	for k, word := range set {
		for w := word; w != 0; w &= w - 1 {
			r := 64*k + bits.TrailingZeros64(w)
			if r >= len(a) || ir.Reg(r) == skip || a[r] == b[r] {
				word &^= 1 << (r % 64)
			}
		}
		set[k] = word
		left = left || word != 0
	}
	return left
}

// Copy-isolation classes of an op: what a tainted operand does.
const (
	isoReject = iota // may reach an effect: the walk rejects
	isoPure          // taints the destination
	isoVote          // one is outvoted; two reject
)

// isoClasses classifies every op for isolates. An op the IR calls pure
// (no effect beyond its destination) propagates taint unless the
// reference exec can make it trap: then its operands decide an effect.
// Vote3 outvotes a single tainted operand. Every other op — memory,
// control flow, calls, checks, runtime hooks — rejects a tainted
// operand, and clears its destination when it reads none.
var isoClasses = sync.OnceValue(func() (cls [ir.NumOps]uint8) {
	for op := ir.Op(0); int(op) < ir.NumOps; op++ {
		switch {
		case !op.IsPure() || canTrap(op):
		case op == ir.OpVote3:
			cls[op] = isoVote
		default:
			cls[op] = isoPure
		}
	}
	return cls
})

// trapProbes are operand values on which the reference exec's
// trapping ops trap: zero and minus-one divisors, NaN, infinite and
// out-of-range floats, and addresses outside the mapped space.
var trapProbes = []uint64{0, 1, ^uint64(0), 1 << 63, 1<<63 - 1, uint64(MappedLimit),
	f2b(math.NaN()), f2b(math.Inf(1)), f2b(-1e300), f2b(0.5)}

// canTrap reports whether the reference exec returns an error for op
// on some combination of probe values in its three operand registers.
func canTrap(op ir.Op) bool {
	m := &Machine{Mem: NewMemory()}
	m.pl.off = true
	f := &frame{fn: &ir.Func{}, regs: make([]uint64, 4)}
	in := &ir.Instr{Op: op, Dst: 3, Args: []ir.Reg{0, 1, 2}}
	for _, a := range trapProbes {
		for _, b := range trapProbes {
			for _, c := range trapProbes {
				f.regs[0], f.regs[1], f.regs[2] = a, b, c
				if m.exec(f, in) != nil {
					return true
				}
			}
		}
	}
	return false
}

// isolates reports whether the registers in taint, which differ from
// the clean run's in a frame of function fi standing at (block, ip),
// can change nothing the run does: a forward may-taint walk over the
// function's CFG, to the fixpoint, with the union of taint where paths
// join, finds no tainted operand of an op that rejects one and no vote
// with two. A pure op that cannot trap taints its destination when it
// reads a tainted register; every other write clears its destination.
// A path ends at a return. taint is consumed.
func (c *Code) isolates(fi, block, ip int, taint []uint64) bool {
	fn := c.mod.Funcs[fi]
	cls := isoClasses()
	entry := make([][]uint64, len(fn.Blocks)) // nil: not reached tainted
	queued := make([]bool, len(fn.Blocks))
	var work []int
	join := func(b int, t []uint64) {
		if allZero(t) {
			return // a clean path stays clean
		}
		if entry[b] == nil {
			entry[b] = make([]uint64, len(t))
		}
		changed := false
		for k, w := range t {
			if entry[b][k]|w != entry[b][k] {
				entry[b][k] |= w
				changed = true
			}
		}
		if changed && !queued[b] {
			queued[b] = true
			work = append(work, b)
		}
	}
	// flow runs taint t through block b from instruction i and joins
	// it into the successors.
	flow := func(t []uint64, b, i int) bool {
		ins := fn.Blocks[b].Instrs
		for ; i < len(ins); i++ {
			in := &ins[i]
			n := 0
			for _, a := range in.Args {
				if isLive(t, a) {
					n++
				}
			}
			taints := false
			switch cls[in.Op] {
			case isoPure:
				taints = n > 0
			case isoVote:
				if n > 1 {
					return false
				}
			default:
				if n > 0 {
					return false
				}
			}
			if d := in.Dst; in.Op.HasDst() && d >= 0 {
				if taints {
					t[d/64] |= 1 << (d % 64)
				} else {
					t[d/64] &^= 1 << (d % 64)
				}
			}
			switch in.Op {
			case ir.OpRet:
				return true
			case ir.OpBr, ir.OpCondBr:
				for _, s := range in.Blocks {
					join(s, t)
				}
				return true
			}
		}
		return false // a block without a terminator
	}
	if !flow(taint, block, ip) {
		return false
	}
	t := make([]uint64, len(taint))
	for len(work) > 0 {
		b := work[len(work)-1]
		work, queued[b] = work[:len(work)-1], false
		copy(t, entry[b])
		if !flow(t, b, 0) {
			return false
		}
	}
	return true
}

// eachDiff calls visit, in ascending order, with each address at
// which the memory's contents differ from a saved one's, a page that
// one side does not hold reading as zeros. It returns false at once
// when the segment pointers differ, and false when a visit does,
// stopping there.
func (m *Memory) eachDiff(st *memState, visit func(addr int64) bool) bool {
	if m.heapEnd != st.heapEnd || m.stackPtr != st.stackPtr {
		return false
	}
	i, j := 0, 0
	for i < len(m.used) || j < len(st.pages) {
		var n int32
		var a, b []uint64 // nil: a page the side does not hold
		if i < len(m.used) && (j == len(st.pages) || m.used[i] <= st.pages[j].n) {
			n = m.used[i]
			a = m.slab[m.table[n]][:]
			i++
		}
		if j < len(st.pages) && (a == nil || st.pages[j].n == n) {
			n = st.pages[j].n
			b = st.pages[j].words[:]
			j++
		}
		if !diffSpan(a, b, int64(n)*pageSize, visit) {
			return false
		}
	}
	return true
}

// diffSpan calls visit with base+i for each index i at which the spans
// a and b differ, stopping and returning false when a visit does. The
// spans have the same length, or one is empty and reads as zeros. They
// are compared a chunk at a time, as arrays, which compiles to the
// runtime's vectorized memequal, so a span that differs in a few words
// costs about what an equal one does.
func diffSpan(a, b []uint64, base int64, visit func(addr int64) bool) bool {
	n := max(len(a), len(b))
	for lo := 0; lo < n; lo += diffChunk {
		hi := min(lo+diffChunk, n)
		ca, cb := zeroChunk[:hi-lo], zeroChunk[:hi-lo]
		if len(a) > 0 {
			ca = a[lo:hi]
		}
		if len(b) > 0 {
			cb = b[lo:hi]
		}
		if hi-lo == diffChunk && *(*[diffChunk]uint64)(ca) == *(*[diffChunk]uint64)(cb) ||
			hi-lo < diffChunk && slices.Equal(ca, cb) {
			continue
		}
		for i := range ca {
			if ca[i] != cb[i] && !visit(base+int64(lo+i)) {
				return false
			}
		}
	}
	return true
}

// diffChunk is diffSpan's chunk in words; zeroChunk is a chunk of
// zeros that an empty span reads as.
const diffChunk = 256

var zeroChunk [diffChunk]uint64

func allZero(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

func isLive(set []uint64, r ir.Reg) bool {
	return r >= 0 && int(r)/64 < len(set) && set[r/64]&(1<<(r%64)) != 0
}

// liveAt returns the registers live just before instruction ip of
// function fi's block (ip == len(block) gives the block's live-out).
func (c *Code) liveAt(fi, block, ip int) []uint64 {
	return c.liveness()[fi].At(c.mod.Funcs[fi], block, ip)
}

// liveness returns the module's per-block live-register solutions,
// solving them on first use: only replicas that check for convergence
// need them, so timed runs and builds never pay for them.
func (c *Code) liveness() []*analysis.Liveness {
	c.liveOnce.Do(func() {
		c.live = make([]*analysis.Liveness, len(c.mod.Funcs))
		for fi, fn := range c.mod.Funcs {
			succs := make([][]int, len(fn.Blocks))
			for bi := range fn.Blocks {
				if ins := fn.Blocks[bi].Instrs; len(ins) > 0 {
					succs[bi] = ins[len(ins)-1].Blocks
				}
			}
			c.live[fi] = analysis.SolveLiveness(fn, succs, nil)
		}
	})
	return c.live
}
