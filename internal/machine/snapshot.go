package machine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"rskip/internal/ir"
)

// Prefix sharing. Every injected replica of a fault campaign executes
// the same fault-free prefix up to its fault target, so a campaign
// snapshots its clean profile run (Config.Capture) and starts each
// replica from the latest snapshot before its target (Resume) instead
// of from instruction 0. The fault-free prefix of a replica is the
// clean run's prefix instruction for instruction, so the resumed run
// is bit-identical to the from-zero one in counters, outputs, error
// and fault attribution — the property test in internal/fault proves
// it on both engines.
//
// Snapshots are taken only at top-level dispatch boundaries of Run
// that both engines visit (compiled segment starts, never inside a
// runtime hook's nested recompute call), where the frame stack,
// counters and memory fully describe the run. The format is
// engine-neutral: a snapshot taken on either engine resumes on either.

// StatefulHooks is implemented by Hooks whose run state must travel
// with a Snapshot — the rtm manager's loop states and statistics.
// SaveState returns a copy the hooks never touch again; RestoreState
// installs a private copy of one, leaving the saved state untouched
// (one snapshot seeds many replicas).
//
// SameState reports whether the hooks' current run state equals a
// SaveState result in everything the rest of the run can read — the
// convergence check (converge.go) compares it at snapshot points. It
// must be exact: float fields compare by bits, not by ==.
type StatefulHooks interface {
	Hooks
	SaveState() any
	RestoreState(state any)
	SameState(saved any) bool
}

// Snapshot is the complete resumable state of a run at one top-level
// dispatch boundary. It holds no cycle state: resumed runs are
// untimed. A Snapshot is immutable once taken and safe to share
// between goroutines; Resume copies everything it hands to a machine.
type Snapshot struct {
	mod    *ir.Module
	mark   uint64   // the Capture threshold this snapshot was taken for
	epoch  uint32   // the capture's record dates the run's later accesses at or past it
	c      Counters // with the compiled backend's segment counts folded in
	frames []frameState
	mem    memState
	hooks  any // StatefulHooks.SaveState, or nil

	overrideActive bool
	overrideAddr   int64
	overrideVal    uint64
	lastRet        uint64
	faultFrameFn   int
	hookOp         ir.Op
}

// frameState is one saved frame; ready cycles and the compiled
// backend's segment hint are not saved (resumed runs are untimed, and
// the hint is recomputed).
type frameState struct {
	fi        int
	regs      []uint64
	block, ip int
	stackMark int64
	retDst    ir.Reg
	inRegion  bool
	savedArgs []uint64
}

// memState is a saved memory: a copy of each page in use, in
// ascending page order, and the segment pointers.
type memState struct {
	pages    []savedPage
	heapEnd  int64
	stackPtr int64
}

// savedPage is page number n's contents.
type savedPage struct {
	n     int32
	words page
}

// Region returns the region instruction count at the snapshot: a
// replica whose fault targets region index Region() or later can
// resume from it.
func (s *Snapshot) Region() uint64 { return s.c.Region }

// Instrs returns the dynamic instructions the snapshot's prefix
// executed — the work a resumed run does not repeat.
func (s *Snapshot) Instrs() uint64 { return s.c.Dyn }

// words returns the memory words the snapshot holds.
func (s *Snapshot) words() int { return len(s.mem.pages) * pageSize }

func (m *Memory) snapshot() memState {
	st := memState{pages: make([]savedPage, len(m.used)), heapEnd: m.heapEnd, stackPtr: m.stackPtr}
	for i, n := range m.used {
		st.pages[i].n = n
		st.pages[i].words = m.slab[m.table[n]]
	}
	return st
}

// restore makes the memory equal to the saved one, whatever the
// current contents: a reset, then a copy of each saved page into a
// slot it overwrites whole.
func (m *Memory) restore(st *memState) {
	m.reset()
	for i := range st.pages {
		p := &st.pages[i]
		m.table[p.n] = int32(len(m.slab))
		m.slab = append(m.slab, p.words)
		m.used = append(m.used, p.n)
	}
	m.heapEnd = st.heapEnd
	m.stackPtr = st.stackPtr
}

// snapshot captures the run's state. Only called at a top-level
// dispatch boundary.
func (m *Machine) snapshot(mark uint64) *Snapshot {
	if m.segHits != nil {
		// Folding mid-run is exact: the end-of-run fold adds only the
		// counts accumulated after this point.
		m.foldSegCounters()
	}
	s := &Snapshot{
		mod:            m.Mod,
		mark:           mark,
		c:              m.C,
		frames:         make([]frameState, len(m.fr)),
		mem:            m.Mem.snapshot(),
		overrideActive: m.overrideActive,
		overrideAddr:   m.overrideAddr,
		overrideVal:    m.overrideVal,
		lastRet:        m.lastRet,
		faultFrameFn:   m.faultFrameFn,
		hookOp:         m.hookOp,
	}
	for i := range m.fr {
		f := &m.fr[i]
		s.frames[i] = frameState{
			fi: f.fi, regs: slices.Clone(f.regs),
			block: f.block, ip: f.ip,
			stackMark: f.stackMark, retDst: f.retDst,
			// slices.Clone keeps nil and empty apart: a non-nil
			// savedArgs marks the traced function even without arguments.
			inRegion: f.inRegion, savedArgs: slices.Clone(f.savedArgs),
		}
	}
	if h, ok := m.cfg.Hooks.(StatefulHooks); ok {
		s.hooks = h.SaveState()
	}
	return s
}

// canSnapshot reports whether every piece of run state lives where a
// snapshot can reach it: hooks (and the call tracer, which belongs to
// them) must save their own state.
func (m *Machine) canSnapshot() bool {
	if m.cfg.Hooks == nil {
		return m.cfg.CallTracer == nil
	}
	_, ok := m.cfg.Hooks.(StatefulHooks)
	return ok
}

// Resume runs to completion from snap instead of from the kernel's
// entry, as if the run had started at instruction 0 with the same
// arguments: counters (Dyn included), outputs, error and fault
// attribution equal the from-zero run's. It must directly follow New
// or Reset on a machine built for the snapshot's module, and the
// machine must be Untimed (a snapshot holds no cycle state); whatever
// the caller stored in between, the snapshot's memory replaces. The
// armed fault must not target a region index before
// snap.Region(), nor the budget end before snap.Instrs() — those
// replicas diverge inside the prefix; Capture.Latest only returns
// snapshots that fit.
// An instruction trace (Config.Trace) starts at the snapshot.
func (m *Machine) Resume(snap *Snapshot) (RunResult, error) {
	if snap.mod != m.Mod {
		panic("machine: Resume with a snapshot of a different module")
	}
	if !m.pl.off {
		panic("machine: Resume needs an Untimed machine")
	}
	if m.fault.armed && m.fault.plan.Target < snap.c.Region {
		panic(fmt.Sprintf("machine: snapshot at region %d is past the fault target %d", snap.c.Region, m.fault.plan.Target))
	}
	if snap.c.Dyn > m.cfg.MaxInstrs {
		panic(fmt.Sprintf("machine: snapshot at %d instructions is past the budget %d", snap.c.Dyn, m.cfg.MaxInstrs))
	}
	if m.cancelled() {
		return RunResult{}, &CancelError{}
	}
	m.restore(snap)
	m.work.Resumed = snap.c.Dyn
	return m.finish(m.runToDepth(0))
}

// restore installs a snapshot's state, copying every slice it hands
// to the machine.
func (m *Machine) restore(s *Snapshot) {
	m.C = s.c
	m.Mem.restore(&s.mem)
	m.fr = m.fr[:0]
	for i := range s.frames {
		sf := &s.frames[i]
		fn := m.Mod.Funcs[sf.fi]
		f := m.newFrame(fn.NumRegs)
		copy(f.regs, sf.regs)
		f.fn = fn
		f.fi = sf.fi
		f.block = sf.block
		f.ip = sf.ip
		f.stackMark = sf.stackMark
		f.retDst = sf.retDst
		f.inRegion = sf.inRegion
		f.savedArgs = slices.Clone(sf.savedArgs)
		// -1 is always a valid hint: the compiled engine looks the
		// segment up from (block, ip).
		f.nseg = -1
	}
	m.overrideActive = s.overrideActive
	m.overrideAddr = s.overrideAddr
	m.overrideVal = s.overrideVal
	m.lastRet = s.lastRet
	m.faultFrameFn = s.faultFrameFn
	m.hookOp = s.hookOp
	if s.hooks != nil {
		h, ok := m.cfg.Hooks.(StatefulHooks)
		if !ok {
			panic("machine: Resume of a snapshot with hook state on a machine without StatefulHooks")
		}
		h.RestoreState(s.hooks)
	}
	if m.backend == BackendCompiled {
		m.recalcTriggers()
	}
}

// captureStride is a Capture's initial snapshot spacing in region
// instructions; it keeps the first snapshots of a long run from being
// taken (and then thinned away) at every dispatch.
const captureStride = 256

// Capture collects snapshots of one run (Config.Capture) at evenly
// spaced region indexes, for Resume. The run's region size is unknown
// until it ends, so Capture samples at a fixed stride and, whenever it
// holds more than 2×min snapshots, keeps every other one and doubles
// the stride: a run of R region instructions ends with min to 2×min
// snapshots about R/(min..2×min) apart (fewer when R < min ×
// captureStride). A run that finishes without error also records its
// final state (no frames, every runtime hook flushed). The snapshots
// double as the convergence check points of replicas run with
// Config.Converge, so their spacing also sets how soon a replica whose
// state rejoined the clean run's notices and takes the final state. A
// run whose hooks cannot save their state captures nothing. After the
// run a Capture is read-only and safe to share.
type Capture struct {
	min     int
	stride  uint64
	next    uint64
	snaps   []*Snapshot
	final   *Snapshot   // the end of a run that finished without error
	split   bool        // the run cast a vote whose operands were not all equal
	rec     memRecord   // when the run last read and wrote each word
	loads   []addrRange // by static load (dinstr.load): the addresses the run, nested runs included, loaded from
	elapsed time.Duration
}

// addrRange is the least and the greatest address a static load read
// in a capture run; lo > hi for a load the run never executed.
type addrRange struct{ lo, hi int64 }

// noteLoad widens load li's range to addr.
func (c *Capture) noteLoad(li int32, addr int64) {
	r := &c.loads[li]
	r.lo, r.hi = min(r.lo, addr), max(r.hi, addr)
}

// memRecord notes, for every word a capture run reads or writes, the
// epoch of its last read and of its last write: how many snapshots
// the run had taken before the access. Snapshot k carries epoch k, so
// the run reads a word after a snapshot iff the word's last read
// dates at or past the snapshot's epoch; a word it never touches
// reads as epoch 0, like an access before the first snapshot. The
// convergence check (converge.go) reads it. Every load and store the
// run makes — both engines' and the runtime hooks' — goes through
// Memory.LoadWord and StoreWord, which log it; the capture notes the
// log here before each snapshot, at the end, and whenever it grows
// past logDrain. The record holds one page of epochs per page the run
// touches, so a run pays for the pages it touches.
type memRecord struct {
	epoch uint32
	pages map[int64]*[pageSize]wordEpochs // by page number
}

// wordEpochs is one word's record.
type wordEpochs struct{ read, write uint32 }

// logDrain is the access-log length past which a capture run notes
// the log in its record between two steps.
const logDrain = 1 << 12

// drain notes the accesses mem has logged, all in the current epoch,
// and empties the log. An address that faults touches nothing.
func (r *memRecord) drain(mem *Memory) {
	if r.pages == nil {
		r.pages = make(map[int64]*[pageSize]wordEpochs)
	}
	n, pg := int64(-1), (*[pageSize]wordEpochs)(nil) // the last page noted
	for _, v := range mem.log {
		addr := v &^ logWrite
		if addr < 0 || addr >= MappedLimit {
			continue
		}
		if addr/pageSize != n {
			n = addr / pageSize
			if pg = r.pages[n]; pg == nil {
				pg = new([pageSize]wordEpochs)
				r.pages[n] = pg
			}
		}
		if v&logWrite != 0 {
			pg[addr%pageSize].write = r.epoch
		} else {
			pg[addr%pageSize].read = r.epoch
		}
	}
	mem.log = mem.log[:0]
}

// at returns the record of the word at addr, a mapped address: zero
// epochs for a word the run never touched.
func (r *memRecord) at(addr int64) wordEpochs {
	if pg := r.pages[addr/pageSize]; pg != nil {
		return pg[addr%pageSize]
	}
	return wordEpochs{}
}

// words returns how many words the record covers.
func (r *memRecord) words() int { return len(r.pages) * pageSize }

// NewCapture returns a capture that keeps at least min snapshots of a
// long enough run.
func NewCapture(min int) *Capture {
	return &Capture{min: max(min, 1), stride: captureStride, next: captureStride}
}

// take snapshots the run if it has reached the next threshold.
func (c *Capture) take(m *Machine) {
	c.rec.drain(m.Mem)
	t0 := time.Now()
	s := m.snapshot(m.C.Region / c.stride * c.stride)
	c.rec.epoch++
	s.epoch = c.rec.epoch
	c.snaps = append(c.snaps, s)
	if len(c.snaps) > 2*c.min {
		c.stride *= 2
		kept := c.snaps[:0]
		for _, s := range c.snaps {
			if s.mark%c.stride == 0 {
				kept = append(kept, s)
			}
		}
		clear(c.snaps[len(kept):])
		c.snaps = kept
	}
	c.next = (m.C.Region/c.stride + 1) * c.stride
	c.elapsed += time.Since(t0)
}

// end records the finished run's final state — no frames, every
// runtime hook flushed — which converged replicas take as their own,
// and whether the run cast a split vote, which rules out convergence
// by copy isolation (converge.go).
func (c *Capture) end(m *Machine) {
	c.rec.drain(m.Mem)
	t0 := time.Now()
	c.final = m.snapshot(m.C.Region)
	c.split = m.splitVotes != 0
	c.elapsed += time.Since(t0)
}

// Len returns the number of resumable snapshots held (the final state
// is not one).
func (c *Capture) Len() int {
	if c == nil {
		return 0
	}
	return len(c.snaps)
}

// Words returns the memory words the snapshots hold, the final state
// included.
func (c *Capture) Words() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.snaps {
		n += s.words()
	}
	if c.final != nil {
		n += c.final.words()
	}
	return n
}

// RecordWords returns the memory words the capture's record of the
// run's reads and writes covers.
func (c *Capture) RecordWords() int {
	if c == nil {
		return 0
	}
	return c.rec.words()
}

// Elapsed returns the wall time spent taking snapshots; it leaves out
// the access log and the record it drains into.
func (c *Capture) Elapsed() time.Duration {
	if c == nil {
		return 0
	}
	return c.elapsed
}

// Latest returns the last snapshot a run faulting at region index
// target under an instruction budget of maxInstrs can resume from —
// at or before target, within the budget — or nil when there is none
// (the run starts from instruction 0).
func (c *Capture) Latest(target, maxInstrs uint64) *Snapshot {
	if c == nil {
		return nil
	}
	i := sort.Search(len(c.snaps), func(i int) bool { return c.snaps[i].c.Region > target })
	for i--; i >= 0; i-- {
		if c.snaps[i].c.Dyn <= maxInstrs {
			return c.snaps[i]
		}
	}
	return nil
}

// runCapturing is the top-level dispatch loop of a run with a
// Capture: either engine's single-step dispatch, with a snapshot
// check between steps, the memory's access log on, and each load's
// address noted in Capture.loads. Nested runs (runtime hooks'
// recompute calls) go through runToDepth and never snapshot, but
// their accesses and loads are noted too.
// Snapshots sit only where the compiled engine dispatches a segment,
// so a compiled replica reaches every snapshot point of a
// reference-engine capture and can check for convergence there.
func (m *Machine) runCapturing(c *Capture) error {
	c.loads = make([]addrRange, m.code.loads)
	for i := range c.loads {
		c.loads[i] = addrRange{math.MaxInt64, math.MinInt64}
	}
	m.Mem.log, m.capt = make([]int64, 0, logDrain), c
	defer func() { m.Mem.log, m.capt = nil, nil }()
	for len(m.fr) > 0 {
		if m.C.Region >= c.next && m.atSegStart() {
			c.take(m)
		} else if len(m.Mem.log) >= logDrain {
			c.rec.drain(m.Mem)
		}
		var err error
		if m.backend == BackendCompiled {
			err = m.runBlockC()
		} else {
			err = m.step()
		}
		if err != nil {
			for len(m.fr) > 0 {
				m.popFrame()
			}
			return err
		}
	}
	c.end(m)
	return nil
}

// atSegStart reports whether the top frame stands at the start of a
// compiled segment: a block entry, or just past a call or runtime hook.
func (m *Machine) atSegStart() bool {
	f := &m.fr[len(m.fr)-1]
	return f.ip == 0 || m.code.fns[f.fi].blocks[f.block].ins[f.ip-1].brk
}
