package machine

import (
	"errors"
	"math/bits"
	"slices"
	"sort"

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
// what a Snapshot holds except faultFrameFn, with two refinements that
// keep it exact:
//
//   - Registers compare only where liveness (analysis.SolveLiveness)
//     says some path may read them: at the frame's (block, ip), and for
//     a caller frame at its return point without the callee's retDst,
//     which the return overwrites.
//   - A strike that flips one register nothing reads before it is
//     written (a register-file, result-bit or destination multi-bit
//     strike on a dead register) leaves the replica converged the
//     moment it fires; it exits at its next top-level boundary.
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

	ok      bool   // the run converged
	skipped uint64 // instructions the exit did not execute
}

// armConvergence prepares the check for a run with cfg: only untimed,
// untraced replicas whose fault is armed and whose budget covers the
// whole clean run can take the clean run's end.
func (m *Machine) armConvergence() {
	m.conv = convState{at: noCheck}
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

// Converged reports whether the last run stopped early because its
// state rejoined the clean run's, and how many instructions of the
// clean run's remainder it therefore did not execute.
func (m *Machine) Converged() (skipped uint64, ok bool) {
	return m.conv.skipped, m.conv.ok
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
	if cv.dead || m.sameState(cv.c.snaps[cv.next]) {
		return true
	}
	cv.seek(m.C.Region + 1)
	return false
}

// jumpToEnd installs the clean run's final state in a converged
// replica. The final counters already hold every instruction, so the
// compiled engine's unfolded segment counts are discarded.
func (m *Machine) jumpToEnd() {
	end := m.conv.c.final
	m.conv.ok = true
	m.conv.skipped = end.c.Dyn - m.C.Dyn
	clear(m.segHits)
	m.restore(end)
}

// sameState reports whether the run's state equals snapshot s in
// everything the rest of the run reads, cheapest comparison first:
// counters, frames, hook state, memory.
func (m *Machine) sameState(s *Snapshot) bool {
	// The eager counters decide most mismatches before the lazy
	// per-segment counts are folded in.
	if m.C.Dyn != s.c.Dyn || m.C.Region != s.c.Region || m.C.Runtime != s.c.Runtime {
		return false
	}
	if m.segHits != nil {
		m.foldSegCounters()
	}
	if m.C != s.c || m.lastRet != s.lastRet || m.hookOp != s.hookOp ||
		m.overrideActive != s.overrideActive || m.overrideAddr != s.overrideAddr || m.overrideVal != s.overrideVal {
		return false
	}
	if !m.sameFrames(s.frames) {
		return false
	}
	if h, ok := m.cfg.Hooks.(StatefulHooks); ok != (s.hooks != nil) || ok && !h.SameState(s.hooks) {
		return false
	}
	return m.Mem.sameAs(&s.mem)
}

// sameFrames compares the frame stack: every position first, then the
// live registers.
func (m *Machine) sameFrames(saved []frameState) bool {
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
	for i := range m.fr {
		f := &m.fr[i]
		// A caller waits at its return point, where the callee's
		// return value will overwrite retDst.
		ret := ir.NoReg
		if i+1 < len(m.fr) {
			ret = m.fr[i+1].retDst
		}
		if !sameLive(f.regs, saved[i].regs, m.code.liveAt(f.fi, f.block, f.ip), ret) {
			return false
		}
	}
	return true
}

// sameLive compares the registers in the live set, except skip.
func sameLive(a, b []uint64, live []uint64, skip ir.Reg) bool {
	for k, word := range live {
		for word != 0 {
			r := 64*k + bits.TrailingZeros64(word)
			word &= word - 1
			if r < len(a) && ir.Reg(r) != skip && a[r] != b[r] {
				return false
			}
		}
	}
	return true
}

// sameAs reports whether the memory means the same as a saved one:
// dense words over the union of both written spans (a word outside a
// span is zero — the arena invariant reset and restore keep), sparse
// pages with an absent page reading as zeros, and the segment
// pointers.
func (m *Memory) sameAs(st *memState) bool {
	if m.heapEnd != st.heapEnd || m.stackPtr != st.stackPtr || int64(len(m.words)) != st.size {
		return false
	}
	lo := int64(len(st.lo))
	if !slices.Equal(m.words[:lo], st.lo) || !allZero(m.words[lo:max(lo, m.dirtyLoEnd)]) {
		return false
	}
	hi := st.hiStart
	if !slices.Equal(m.words[hi:], st.hi) || !allZero(m.words[min(hi, m.dirtyHiStart):hi]) {
		return false
	}
	for k, pg := range m.pages {
		if sp, ok := st.pages[k]; ok && !slices.Equal(pg, sp) || !ok && !allZero(pg) {
			return false
		}
	}
	for k, sp := range st.pages {
		if _, ok := m.pages[k]; !ok && !allZero(sp) {
			return false
		}
	}
	return true
}

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
