package machine

import (
	"fmt"
	"io"

	"rskip/internal/ir"
	"rskip/internal/obs"
)

// Hooks is the run-time management bridge. The rskip transform plants
// OpRTLoopEnter/OpRTObserve/OpRTLoopExit in PP loop versions; the
// machine forwards them here. Implementations live in internal/rtm.
type Hooks interface {
	// LoopEnter announces entry into PP loop id with its invariant
	// live-in register values (raw bits).
	LoopEnter(m *Machine, id int, invariants []uint64) error
	// Observe delivers one loop iteration's produced value and its
	// destination address. iter is the iteration ordinal starting at 0.
	Observe(m *Machine, id int, iter int64, value uint64, addr int64) error
	// LoopExit flushes the final (possibly uncut) phase.
	LoopExit(m *Machine, id int) error
}

// TrapError reports an abnormal termination (illegal instruction,
// divide by zero, bad conversion) — the paper's "Core dump" class.
type TrapError struct{ Reason string }

func (e *TrapError) Error() string { return "machine: trap: " + e.Reason }

// HangError reports that execution exceeded the instruction budget —
// the paper's "Hang" class.
type HangError struct{ Limit uint64 }

func (e *HangError) Error() string {
	return fmt.Sprintf("machine: execution exceeded %d instructions", e.Limit)
}

// DetectError reports a SWIFT Check2 mismatch: the detection-only
// scheme signals the fault instead of recovering.
type DetectError struct{ Func string }

func (e *DetectError) Error() string {
	return "machine: fault detected by check in " + e.Func
}

// CancelError reports that the run was stopped from outside through
// Config.Cancel — a campaign cancellation or a per-run wall-clock
// deadline. It is not one of the paper's outcome classes; callers
// decide whether the run counts as a Hang (deadline) or is discarded
// (cancellation).
type CancelError struct{}

func (e *CancelError) Error() string { return "machine: run cancelled" }

// Counters aggregates execution statistics. The struct holds only
// value types, so two Counters compare with == (the golden-counters
// differential test relies on this) and copying a RunResult never
// shares state with the machine.
//
// Accounting invariant: every dynamic instruction is attributed to
// exactly one opcode row, including runtime-library work (charged
// against the runtime-hook opcode that triggered it), so
//
//	OpTotal() == Dyn   and   sum(RT-hook rows) == Runtime
//
// hold at all times — the per-opcode breakdown reconciles with Dyn
// without out-of-band knowledge.
type Counters struct {
	Dyn      uint64            // dynamic instructions, including runtime-library charges
	Region   uint64            // dynamic IR instructions inside the detected-loop region
	ByTag    [6]uint64         // per protection-role tag
	Runtime  uint64            // instructions charged by runtime hooks
	Internal uint64            // instructions executed inside internal (value-slice) functions
	ops      [ir.NumOps]uint64 // per-opcode dynamic counts, indexed by opcode
}

// OpCount returns the dynamic instruction count attributed to op.
func (c *Counters) OpCount(op ir.Op) uint64 {
	if int(op) >= ir.NumOps {
		return 0
	}
	return c.ops[op]
}

// OpTotal returns the sum of all per-opcode counts; it always equals
// Dyn.
func (c *Counters) OpTotal() uint64 {
	var sum uint64
	for _, n := range c.ops {
		sum += n
	}
	return sum
}

// OpsMap returns the non-zero per-opcode counts as a map, for callers
// that iterate the opcode breakdown (reports, tooling).
func (c *Counters) OpsMap() map[ir.Op]uint64 {
	out := make(map[ir.Op]uint64)
	for op, n := range c.ops {
		if n != 0 {
			out[ir.Op(op)] = n
		}
	}
	return out
}

// Config parameterizes a machine.
type Config struct {
	IssueWidth int // superscalar width (default 4)
	MaxInstrs  uint64
	Hooks      Hooks
	// RegionFuncs marks function indexes whose execution counts
	// entirely as "inside the detected loops" for fault injection and
	// region accounting (value-slice callees, recompute slices).
	RegionFuncs map[int]bool
	// RegionBlocks marks individual blocks (per function index) as
	// detected-loop region — the candidate loops inside kernels whose
	// other code stays outside the region. Calls made from region
	// blocks execute in-region transitively.
	RegionBlocks map[int]map[int]bool
	// RegionOwner maps forced-region function indexes (RegionFuncs) to
	// the kernel function owning the loop they were outlined from, so
	// region traces attribute recompute-slice execution to the loop's
	// region rather than to the outlined helper.
	RegionOwner map[int]int
	// RegionTrace, when non-nil, records the owner/class layout of the
	// in-region dynamic instruction stream (see regiontrace.go). The
	// compiled backend records it on its careful path, as it does Trace.
	RegionTrace *RegionTrace
	Fault       *FaultPlan
	// Cancel, when non-nil, stops the run with a CancelError once the
	// channel closes. It is polled every cancelPollInterval dynamic
	// instructions (and once at Run entry), so cancellation latency is
	// bounded without a per-instruction select on the hot path.
	Cancel <-chan struct{}
	// TraceFn, with a non-nil CallTracer, names the function index
	// whose every completed call CallTracer receives — the trainer uses
	// it to sample memo-function input/output pairs. Without a
	// CallTracer it is not read.
	TraceFn    int
	CallTracer func(args []uint64, ret uint64)
	// Code, when non-nil, supplies the pre-decoded form of the module
	// (CompileCode). Campaign-style callers that build one machine per
	// run pass a shared Code so the decode cost is paid once; when nil
	// (or built for a different module), New decodes on the spot.
	Code *Code
	// Backend selects the execution engine: the compiled
	// closure-threaded backend (the zero value) or the seed reference
	// interpreter. Both are bit-identical in counters, cycles, outputs
	// and fault outcomes; they differ only in speed.
	Backend Backend
	// Untimed skips the out-of-order cycle model for this run: no μop
	// is scheduled, so RunResult.Cycles is 0 and no register carries a
	// ready cycle. Every other counter, the outputs, the error and the
	// fault attribution are bit-identical to a timed run, because the
	// model only ever produces cycles. Fault-campaign replicas set it
	// (their outcomes never read cycles); runs that report time leave
	// it false. Unlike the build-affecting fields, Reset may change it.
	Untimed bool
	// Capture, when non-nil, snapshots this run at evenly spaced region
	// indexes for later Resume (see snapshot.go). Fault campaigns set it
	// on their clean profile run; it does not change the run itself.
	Capture *Capture
	// Converge, when non-nil on an Untimed run with an armed fault,
	// holds a Capture of the same instance's clean run: once the fault
	// has fired, the run stops as soon as its state rejoins the clean
	// run's and takes the clean run's end (see converge.go). On the
	// compiled engine, a run that outlives the clean run also tries to
	// prove the loop it spins in exhausts the budget, and skips to the
	// iteration that does (see hangproof.go). Outcomes are unchanged;
	// runs with Trace or RegionTrace never stop or skip early.
	Converge *Capture
	// Trace, when non-nil, receives one line per executed instruction
	// (capped by TraceLimit, default 10000) — the compiler-debugging
	// view of a run.
	Trace      io.Writer
	TraceLimit uint64
	// Metrics, when non-nil, receives per-run execution counters
	// (instructions, cycles, region work, arena pool traffic). The
	// instruments are resolved once at New and fed once per Run, so
	// the per-instruction hot path is untouched; nil keeps the machine
	// metric-free at the cost of one pointer test per run.
	Metrics *obs.Metrics
}

// machineMetrics caches the instrument handles one machine feeds, so
// Run pays atomic adds instead of registry lookups.
type machineMetrics struct {
	runs      *obs.Counter
	instrs    *obs.Counter
	cycles    *obs.Counter
	region    *obs.Counter
	runtime   *obs.Counter
	runInstrs *obs.Histogram
}

func newMachineMetrics(m *obs.Metrics) *machineMetrics {
	if m == nil {
		return nil
	}
	return &machineMetrics{
		runs:    m.Counter("machine_runs_total", "kernel executions"),
		instrs:  m.Counter("machine_instrs_total", "dynamic instructions of finished runs, executed or skipped; for campaign replicas the work counters (fault_executed_instrs_<class>_total and fault_*_instrs_skipped_total) split them"),
		cycles:  m.Counter("machine_cycles_total", "simulated cycles of timed runs (untimed campaign replicas add 0)"),
		region:  m.Counter("machine_region_instrs_total", "dynamic instructions inside detected-loop regions"),
		runtime: m.Counter("machine_runtime_charge_total", "instructions charged by runtime hooks"),
		runInstrs: m.Histogram("machine_run_instrs", "dynamic instructions per run",
			obs.ExpBuckets(1e3, 4, 12)),
	}
}

// DefaultMaxInstrs bounds runaway executions (corrupted branches).
const DefaultMaxInstrs = 4 << 30

// Machine executes one module instance.
type Machine struct {
	Mod *ir.Module
	Mem *Memory
	C   Counters
	cfg Config
	fr  []frame
	// loadOverride redirects loads of a single address during
	// re-computation of read-modify-write loops (the paper's
	// "temporary space" for loops like lud's a[j*size+i]).
	overrideActive bool
	overrideAddr   int64
	overrideVal    uint64

	fault        faultState
	regTags      map[int][]ir.InstrTag // per-function register-tag cache for fault attribution
	faultFrameFn int                   // function index of the currently executing frame
	traced       uint64                // trace lines emitted
	lastRet      uint64                // return value of the most recently returned frame
	cancelAt     uint64                // Dyn threshold for the next Cancel poll

	code    *Code    // pre-decoded module (shared, immutable)
	ccode   *ccode   // closure-threaded form (BackendCompiled only; shared, immutable)
	backend Backend  // execution engine, fixed at New
	region  [][]bool // per-function per-block in-region flags (from cfg.RegionBlocks)
	hookOp  ir.Op    // runtime-hook opcode whose dispatch is in progress (Charge attribution)
	met     *machineMetrics

	// Compiled-backend state: lazy per-segment execution counts
	// (folded into C once per Run) and the conservative block-entry
	// trigger thresholds — see compiled.go.
	segHits       []uint64
	dynTrigger    uint64
	regionTrigger uint64

	conv convState // convergence check against the clean run (converge.go)
	hang hangState // hang-proof attempts (hangproof.go)
	nest int       // runtime-hook recompute runs in progress
	_    [8]byte   // pads pl to a 64-byte offset

	// pl sits past every hot field: its fixed slot/ring arrays span
	// several pages, and keeping them there keeps every other hot field
	// of the struct within the first cache lines. The fields above end
	// at a 64-byte offset (1024 on 64-bit hosts), so its scalar head
	// (off, read by every instruction) fills one cache line; a field
	// added above moves it, and TestPipelineLayout fails until a pad
	// before it restores the alignment.
	pl pipeline

	// The fields below, which no hot path reads, sit past pl so that
	// their size moves no hot field.
	hangp *proof // the hang proofs' dry-run buffers, kept across runs (hangproof.go)
	// splitVotes counts the votes whose three operands were not all
	// equal. A capture records whether its run cast any (converge.go);
	// only a split vote, rare outside injected runs, writes it.
	splitVotes uint64
	work       Work // what the run's shortcuts spared it
	// kept holds the differing memory words a converged replica keeps:
	// the clean remainder neither reads nor writes them (converge.go).
	kept []memWord
	// overCap notes that a check found more differing memory words
	// than deadWordCap: later checks of the run take that as final
	// instead of collecting the difference again (converge.go).
	overCap bool
}

// cancelPollInterval bounds how many dynamic instructions execute
// between polls of Config.Cancel.
const cancelPollInterval = 1024

// cancelled polls Config.Cancel without blocking.
func (m *Machine) cancelled() bool {
	if m.cfg.Cancel == nil {
		return false
	}
	select {
	case <-m.cfg.Cancel:
		return true
	default:
		return false
	}
}

// inRegionNow reports whether the frame currently executes inside the
// detected-loop region: inherited from its call site, forced by its
// function, or positioned in a region block.
func (m *Machine) inRegionNow(f *frame) bool {
	if f.inRegion {
		return true
	}
	if rb := m.cfg.RegionBlocks[f.fi]; rb != nil && rb[f.block] {
		return true
	}
	return false
}

type frame struct {
	fn        *ir.Func
	fi        int
	regs      []uint64
	ready     []uint64
	block, ip int
	stackMark int64
	retDst    ir.Reg
	// nseg is the compiled backend's next-segment hint: -1 or exactly
	// the global segment starting at (block, ip) when this frame is on
	// top — see runBlockC. The reference engine leaves it at -1.
	nseg      int32
	inRegion  bool
	savedArgs []uint64 // captured for CallTracer when this is the traced fn
}

// New creates a machine for the module: it builds the state that
// depends on the build — memory, decoded and compiled code,
// region flags, metrics — and then the per-run state through Reset.
func New(mod *ir.Module, cfg Config) *Machine {
	cfg = withDefaults(cfg)
	mem, pooled := newPooledMemory()
	m := &Machine{Mod: mod, Mem: mem}
	if cfg.Metrics != nil {
		m.met = newMachineMetrics(cfg.Metrics)
		if pooled {
			cfg.Metrics.Counter("machine_arena_pool_hits_total", "memory arenas recycled from the pool").Inc()
		} else {
			cfg.Metrics.Counter("machine_arena_pool_misses_total", "memory arenas freshly allocated").Inc()
		}
	}
	code := cfg.Code
	if code == nil || code.mod != mod {
		code = CompileCode(mod)
	}
	m.code = code
	m.backend = cfg.Backend
	if m.backend == BackendCompiled {
		m.ccode = code.compiledForm()
		m.segHits = make([]uint64, len(m.ccode.segs))
	}
	m.region = code.regionFlags(&cfg)
	m.Reset(cfg)
	return m
}

// withDefaults fills the zero fields of cfg that have defaults.
func withDefaults(cfg Config) Config {
	if cfg.IssueWidth == 0 {
		cfg.IssueWidth = 4
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = DefaultMaxInstrs
	}
	return cfg
}

// Reset restores the machine to its just-constructed state for
// another run of the same module, replacing the per-run configuration
// (fault plan, cancel channel, hooks, budget, tracing) with cfg while
// keeping every pooled allocation: the memory (its pages unmapped),
// the frame stack's register slabs, the shared decoded and
// compiled code, and the register-tag cache. Campaign workers reset
// one machine per replica instead of building one machine per run.
// It is also the second half of New, so every per-run field is set up
// in this one place.
//
// The build-affecting fields — Code, Backend, IssueWidth,
// RegionBlocks, Metrics — must match the config the machine was
// created with; Reset does not re-derive the decoded code, region
// flags or backend. Callers that need a different module or backend
// create a new machine.
func (m *Machine) Reset(cfg Config) {
	m.Mem.reset()
	cfg = withDefaults(cfg)
	m.cfg = cfg
	m.C = Counters{}
	m.pl.init(cfg.IssueWidth, cfg.Untimed)
	m.fr = m.fr[:0]
	m.overrideActive = false
	m.overrideAddr = 0
	m.overrideVal = 0
	m.fault = faultState{}
	if cfg.Fault != nil {
		m.fault = faultState{plan: *cfg.Fault, armed: true}
	}
	m.faultFrameFn = 0
	m.traced = 0
	m.lastRet = 0
	m.cancelAt = 0
	m.hookOp = ir.OpRTObserve
	m.nest = 0
	m.splitVotes = 0
	m.work = Work{}
	m.armConvergence()
	m.armHangProof()
	if m.backend == BackendCompiled {
		// Run folds-and-clears segHits on every exit, so the counts are
		// already zero unless the previous run died in a contained panic
		// — clear defensively so a reused machine never inherits them.
		clear(m.segHits)
		m.recalcTriggers()
	}
}

// Release returns the machine's pooled resources (its memory) for
// reuse by a future New. The machine and its Mem must not be used
// afterwards. Calling Release is optional — an unreleased machine is
// simply collected — but campaign-style callers that build one machine
// per run save a memory's allocation per run.
func (m *Machine) Release() {
	mem := m.Mem
	m.Mem = nil
	releaseMemory(mem)
}

// RunResult reports one execution.
type RunResult struct {
	Ret    uint64
	Instrs uint64
	// Cycles is the out-of-order model's completion cycle. It is 0 for
	// a Config.Untimed run; every other field is the same either way.
	Cycles  uint64
	Region  uint64
	Counter Counters
}

// IPC returns instructions per cycle.
func (r RunResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// Work is what a run's shortcuts spared it: instructions it reports
// but did not execute. New and Reset clear it, so a Run without
// Config.Converge reports a zero Work.
type Work struct {
	Resumed     uint64 // the fault-free prefix Resume restored from a snapshot
	Converged   uint64 // the clean run's remainder taken from its end; > 0 iff the run converged (converge.go)
	Isolated    bool   // it converged by copy isolation, isolated registers still differing
	DeadWords   int    // memory words it converged still differing in, none of which the clean remainder reads
	Reject      Reject // why its last convergence check failed
	HangSkipped uint64 // runaway-loop instructions hang proofs skipped; > 0 iff one held (hangproof.go)
	HangNested  bool   // a proof took a loop nested in the one it proved as one step
}

// Reject is the part of the state on which a convergence check found
// a replica and the clean run apart (converge.go), in the order the
// check compares them. RejectNoCheck, the zero value, stands for a
// run that reached no check.
type Reject uint8

const (
	RejectNoCheck     Reject = iota
	RejectDyn                // the Dyn counter
	RejectCounters           // another counter
	RejectPositions          // the frame stack but its registers
	RejectControl            // lastRet, the hook op or the load override
	RejectRegisters          // live registers, copy isolation off
	RejectHooks              // the runtime hooks' state
	RejectMemoryLive         // a memory word the clean remainder reads
	RejectMemoryOther        // the segment pointers, or more differing words than deadWordCap
	RejectWalk               // registers the copy-isolation walk cannot isolate
	NumRejects
)

var rejectNames = [NumRejects]string{"no_check", "dyn", "counters", "positions", "control", "registers",
	"hooks", "memory_live", "memory_other", "walk"}

func (r Reject) String() string { return rejectNames[r] }

// Executed is how many of a run's reported instructions it executed:
// the reported count less the three skips.
func (w Work) Executed(reported uint64) uint64 {
	return reported - w.Resumed - w.Converged - w.HangSkipped
}

// Work reports what the last run's shortcuts spared it.
func (m *Machine) Work() Work { return m.work }

// Run executes function fnIdx with raw-bits arguments until it
// returns. Errors are SegfaultError, TrapError, HangError or
// DetectError; callers classify them into the paper's outcome classes.
func (m *Machine) Run(fnIdx int, args []uint64) (RunResult, error) {
	if m.cancelled() {
		return RunResult{}, &CancelError{}
	}
	if err := m.pushFrame(fnIdx, args, ir.NoReg); err != nil {
		return RunResult{}, err
	}
	if c := m.cfg.Capture; c != nil && m.canSnapshot() {
		return m.finish(m.runCapturing(c))
	}
	return m.finish(m.runToDepth(0))
}

// finish completes a top-level run: takes the clean run's end if the
// run converged, folds the lazy counters, assembles the result and
// feeds the metrics.
func (m *Machine) finish(err error) (RunResult, error) {
	if err == errConverged {
		m.jumpToEnd()
		err = nil
	}
	if m.segHits != nil {
		m.foldSegCounters()
	}
	res := RunResult{
		Ret:     m.lastRet,
		Instrs:  m.C.Dyn,
		Cycles:  m.pl.total(),
		Region:  m.C.Region,
		Counter: m.C,
	}
	if mm := m.met; mm != nil {
		mm.runs.Inc()
		mm.instrs.Add(res.Instrs)
		mm.cycles.Add(res.Cycles)
		mm.region.Add(res.Region)
		mm.runtime.Add(m.C.Runtime)
		mm.runInstrs.Observe(float64(res.Instrs))
	}
	return res, err
}

func (m *Machine) pushFrame(fnIdx int, args []uint64, retDst ir.Reg) error {
	fn := m.Mod.Funcs[fnIdx]
	if len(args) != len(fn.Params) {
		return fmt.Errorf("machine: calling %s with %d args, want %d",
			fn.Name, len(args), len(fn.Params))
	}
	f := m.newFrame(fn.NumRegs)
	f.fn = fn
	f.fi = fnIdx
	f.block = 0
	f.ip = 0
	f.nseg = -1
	if m.ccode != nil {
		f.nseg = m.ccode.entrySeg[fnIdx]
	}
	f.stackMark = m.Mem.StackMark()
	f.retDst = retDst
	f.savedArgs = nil
	copy(f.regs, args)
	if m.cfg.CallTracer != nil && fnIdx == m.cfg.TraceFn {
		f.savedArgs = append([]uint64(nil), args...)
	}
	// Parameters become ready when the call issues; approximate with
	// the current cycle.
	if !m.pl.off {
		now := m.pl.now()
		for i := range args {
			f.ready[i] = now
		}
	}
	f.inRegion = m.cfg.RegionFuncs[fnIdx]
	if !f.inRegion && len(m.fr) > 1 {
		f.inRegion = m.inRegionNow(&m.fr[len(m.fr)-2])
	}
	return nil
}

// newFrame pushes a frame slot with nr zeroed registers; the caller
// fills in the rest. Frames are pooled across calls: popFrame only
// shrinks len(m.fr), leaving the slot's register arrays in the backing
// array, so a push at the same depth reuses them (cleared — a fresh
// frame must observe zeroed registers) instead of allocating.
// Invoke-heavy runs — every suspected iteration calls an outlined
// recompute slice — would otherwise allocate two slices per call.
//
// A timed frame's registers and their ready cycles share one slab, so
// the value/ready pair an instruction touches shares cache lines. An
// untimed frame has no ready half: its ready slice is empty, so any
// ready-cycle access an untimed path failed to skip panics.
func (m *Machine) newFrame(nr int) *frame {
	var f *frame
	if cap(m.fr) > len(m.fr) {
		m.fr = m.fr[:len(m.fr)+1]
		f = &m.fr[len(m.fr)-1]
	} else {
		m.fr = append(m.fr, frame{})
		f = &m.fr[len(m.fr)-1]
	}
	if m.pl.off {
		f.ready = f.ready[:0]
		if cap(f.regs) >= nr {
			f.regs = f.regs[:nr]
			clear(f.regs)
		} else {
			f.regs = make([]uint64, nr)
		}
		return f
	}
	if cap(f.regs) >= nr && cap(f.ready) >= nr {
		f.regs = f.regs[:nr]
		f.ready = f.ready[:nr]
		for i := range f.regs {
			f.regs[i] = 0
			f.ready[i] = 0
		}
	} else {
		s := make([]uint64, 2*nr)
		f.regs = s[:nr:nr]
		f.ready = s[nr:]
	}
	return f
}

func (m *Machine) popFrame() {
	f := &m.fr[len(m.fr)-1]
	m.Mem.popStackTo(f.stackMark)
	m.fr = m.fr[:len(m.fr)-1]
}

// runToDepth steps until the frame stack shrinks to the given depth,
// using whichever execution engine the config selected. The reference
// engine runs a due convergence check (converge.go) between top-level
// steps; the compiled engine does so in runBlockSlow.
func (m *Machine) runToDepth(depth int) error {
	if m.backend == BackendCompiled {
		return m.runCompiled(depth)
	}
	for len(m.fr) > depth {
		var err error
		if m.C.Region >= m.conv.at && m.nest == 0 && m.converged() {
			err = errConverged
		} else {
			err = m.step()
		}
		if err != nil {
			// Unwind so nested invocations leave a consistent stack.
			for len(m.fr) > depth {
				m.popFrame()
			}
			return err
		}
	}
	return nil
}

// Charge accounts runtime-library work against the instruction and
// cycle counters. Hooks call it for every predictor operation so the
// cost of prediction is fully visible in Fig. 7b/7c. The charge is
// attributed to the runtime-hook opcode whose dispatch is in progress,
// so the per-opcode histogram reconciles with Dyn (the RT-hook
// instructions themselves carry zero μops — see uops — and runtime
// work was previously invisible in the opcode breakdown).
func (m *Machine) Charge(c Cost) {
	n := c.Instrs()
	m.C.Dyn += n
	m.C.Runtime += n
	m.C.ops[m.hookOp] += n
	m.C.ByTag[ir.TagRuntime] += n
	if m.pl.off {
		return
	}
	now := m.pl.now()
	for i := 0; i < c.IntOps; i++ {
		m.pl.issue(now, 1)
	}
	for i := 0; i < c.Branches; i++ {
		m.pl.issue(now, 1)
	}
	for i := 0; i < c.MemOps; i++ {
		m.pl.issue(now, 3)
	}
	for i := 0; i < c.FpOps; i++ {
		m.pl.issue(now, 3)
	}
}

// CallRecompute re-executes a PP loop's outlined value slice for one
// iteration: the paper's "further investigation" after a suspected
// fault (and the recovery path's re-computation). When useOverride is
// set, loads of overrideAddr observe overrideVal — the buffered
// pre-store value of read-modify-write loops.
func (m *Machine) CallRecompute(loop *ir.LoopInfo, iter int64, invariants []uint64,
	useOverride bool, overrideAddr int64, overrideVal uint64) (uint64, error) {

	args := make([]uint64, 0, 1+len(invariants))
	args = append(args, uint64(iter))
	args = append(args, invariants...)
	savedActive, savedAddr, savedVal := m.overrideActive, m.overrideAddr, m.overrideVal
	if useOverride {
		m.overrideActive, m.overrideAddr, m.overrideVal = true, overrideAddr, overrideVal
	}
	depth := len(m.fr)
	if err := m.pushFrame(loop.RecomputeFn, args, ir.NoReg); err != nil {
		return 0, err
	}
	m.nest++
	err := m.runToDepth(depth)
	m.nest--
	m.overrideActive, m.overrideAddr, m.overrideVal = savedActive, savedAddr, savedVal
	if err != nil {
		return 0, err
	}
	return m.lastRet, nil
}
