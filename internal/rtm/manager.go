package rtm

import (
	"fmt"
	"math"
	"slices"

	"rskip/internal/ir"
	"rskip/internal/machine"
	"rskip/internal/predict"
)

// Config parameterizes the run-time management system.
type Config struct {
	// AR is the acceptable range as a relative fraction (0.2 = AR20).
	AR float64
	// DefaultTP seeds the tuning parameter before any QoS adjustment.
	DefaultTP float64
	// Window is the observe/adjust period in elements (Figure 6); 0
	// disables periodic adjustment.
	Window int
	// QoS holds per-loop signature→TP models from offline training.
	QoS map[int]*QoSModel
	// Memo holds per-loop memoization tables (deployed by training for
	// loops whose value is a pure user call).
	Memo map[int]*predict.MemoTable
	// ForceCP runs the listed loops under emulated conventional
	// protection: every element is re-computed and compared, no
	// prediction. Used when PP is expected to have no benefit and for
	// ablations.
	ForceCP map[int]bool
	// DisableMemo turns the second-level predictor off (the Fig. 8a
	// DI-only configuration).
	DisableMemo bool
	// DisableDI routes every element straight to the second-level
	// predictor / re-computation (AM-only ablation).
	DisableDI bool
	// FixedStride replaces redundancy-guided phase slicing with fixed
	// K-element phases (the ablation of the paper's dynamic slicing).
	FixedStride int
}

// DefaultConfig returns the deployment defaults.
func DefaultConfig(ar float64) Config {
	return Config{AR: ar, DefaultTP: 0.25, Window: 32}
}

// LoopStats aggregates one loop's protection activity.
type LoopStats struct {
	Observed     int // elements subject to validation
	SkippedDI    int // accepted by dynamic interpolation
	SkippedAM    int // accepted by approximate memoization
	Recomputed   int // exactly validated by re-computation
	Mispredicted int // recomputation matched the original (no fault)
	Detected     int // recomputation mismatched: possible fault
	Recovered    int // majority vote repaired the element
	Unrecovered  int // three-way disagreement
	Phases       int
	Adjusts      int
	// TPTrace/SigTrace record the tuning parameter and context
	// signature chosen at each observe/adjust cycle (Figure 6's
	// trajectory).
	TPTrace    []float64
	SigTrace   []string
	AMProbes   int
	AMWrong    int
	DIDisabled bool
	AMDisabled bool
}

// SkipRate returns the fraction of elements whose re-computation was
// skipped — the paper's headline metric (Fig. 7a).
func (s *LoopStats) SkipRate() float64 {
	if s.Observed == 0 {
		return 0
	}
	return float64(s.SkippedDI+s.SkippedAM) / float64(s.Observed)
}

// DISkipRate returns the first-level predictor's contribution alone.
func (s *LoopStats) DISkipRate() float64 {
	if s.Observed == 0 {
		return 0
	}
	return float64(s.SkippedDI) / float64(s.Observed)
}

type loopState struct {
	info       *ir.LoopInfo
	interp     *predict.Interp
	invariants []uint64
	fixed      []predict.Point // buffered points under FixedStride
	sinceAdj   int
	active     bool
}

// Manager implements machine.Hooks, and machine.StatefulHooks so that
// campaign replicas can resume from and converge to its clean runs.
type Manager struct {
	cfg   Config
	mod   *ir.Module
	loops map[int]*loopState
	Stats map[int]*LoopStats
	// memoParamTypes caches the traced function's parameter types for
	// raw-bits conversion.
	memoFn         int
	memoParamTypes []ir.Type
	// pendingMemoArgs holds the most recent traced memo-function call's
	// inputs, consumed by the next Observe.
	pendingMemoArgs []float64
}

var _ machine.StatefulHooks = (*Manager)(nil)

// NewManager creates a manager for the transformed module.
func NewManager(mod *ir.Module, cfg Config) *Manager {
	if cfg.DefaultTP == 0 {
		cfg.DefaultTP = 0.25
	}
	m := &Manager{
		cfg:    cfg,
		mod:    mod,
		loops:  map[int]*loopState{},
		Stats:  map[int]*LoopStats{},
		memoFn: -1,
	}
	for i := range mod.Loops {
		li := &mod.Loops[i]
		m.Stats[li.ID] = &LoopStats{}
		if li.MemoFn >= 0 && cfg.Memo[li.ID] != nil && !cfg.DisableMemo {
			m.memoFn = li.MemoFn
			f := mod.Funcs[li.MemoFn]
			m.memoParamTypes = make([]ir.Type, len(f.Params))
			for pi, p := range f.Params {
				m.memoParamTypes[pi] = p.Type
			}
		}
	}
	return m
}

// MachineConfig wires the manager into a machine configuration.
func (m *Manager) MachineConfig(base machine.Config) machine.Config {
	base.Hooks = m
	base.TraceFn = -1
	if m.memoFn >= 0 {
		base.TraceFn = m.memoFn
		base.CallTracer = m.traceMemoCall
	}
	return base
}

func (m *Manager) traceMemoCall(args []uint64, ret uint64) {
	in := make([]float64, len(args))
	for i, a := range args {
		if i < len(m.memoParamTypes) && m.memoParamTypes[i] == ir.Float {
			in[i] = math.Float64frombits(a)
		} else {
			in[i] = float64(int64(a))
		}
	}
	m.pendingMemoArgs = in
}

// managerState is a saved Manager run state (machine.StatefulHooks):
// what a resumed replica needs to continue exactly where the clean run
// was when it was snapshotted.
type managerState struct {
	loops           map[int]*loopState
	stats           map[int]*LoopStats
	pendingMemoArgs []float64
}

// clone copies a loop state; the slices the manager later edits in
// place are copied, the immutable loop info is shared.
func (ls *loopState) clone() *loopState {
	c := *ls
	c.interp = ls.interp.Clone()
	c.invariants = append([]uint64(nil), ls.invariants...)
	c.fixed = append([]predict.Point(nil), ls.fixed...)
	return &c
}

// clone copies loop statistics. The traces are only ever appended to,
// so clipping their capacity is enough: the copy's first append
// reallocates instead of writing into the shared array.
func (st *LoopStats) clone() *LoopStats {
	c := *st
	c.TPTrace = st.TPTrace[:len(st.TPTrace):len(st.TPTrace)]
	c.SigTrace = st.SigTrace[:len(st.SigTrace):len(st.SigTrace)]
	return &c
}

// copyState returns a deep copy of the run state.
func (s *managerState) copyState() *managerState {
	c := &managerState{
		loops:           make(map[int]*loopState, len(s.loops)),
		stats:           make(map[int]*LoopStats, len(s.stats)),
		pendingMemoArgs: slices.Clone(s.pendingMemoArgs), // nil means no pending call
	}
	for id, ls := range s.loops {
		c.loops[id] = ls.clone()
	}
	for id, st := range s.stats {
		c.stats[id] = st.clone()
	}
	return c
}

// SaveState implements machine.StatefulHooks: a copy of the loop
// states, statistics (with their TP and signature traces) and the
// pending memo inputs.
func (m *Manager) SaveState() any {
	return (&managerState{loops: m.loops, stats: m.Stats, pendingMemoArgs: m.pendingMemoArgs}).copyState()
}

// RestoreState implements machine.StatefulHooks: the manager continues
// from a private copy of a SaveState result.
func (m *Manager) RestoreState(state any) {
	c := state.(*managerState).copyState()
	m.loops, m.Stats, m.pendingMemoArgs = c.loops, c.stats, c.pendingMemoArgs
}

// SameState implements machine.StatefulHooks: the manager's loop
// states, statistics and pending memo inputs equal a SaveState
// result's. Floats compare by bits. Slices whose nil-ness the run or
// its caller can observe keep nil apart from empty: the pending memo
// inputs (nil means no pending call) and the statistics' traces
// (reported as they are); the loop states' internal buffers do not.
func (m *Manager) SameState(saved any) bool {
	s := saved.(*managerState)
	if len(m.Stats) != len(s.stats) || len(m.loops) != len(s.loops) ||
		(m.pendingMemoArgs == nil) != (s.pendingMemoArgs == nil) ||
		!predict.SameFloats(m.pendingMemoArgs, s.pendingMemoArgs) {
		return false
	}
	for id, st := range m.Stats {
		if o, ok := s.stats[id]; !ok || !st.same(o) {
			return false
		}
	}
	for id, ls := range m.loops {
		if o, ok := s.loops[id]; !ok || !ls.same(o) {
			return false
		}
	}
	return true
}

// same compares two loop states; the loop info is shared, not copied,
// so it compares by identity.
func (ls *loopState) same(o *loopState) bool {
	return ls.info == o.info && ls.sinceAdj == o.sinceAdj && ls.active == o.active &&
		slices.Equal(ls.invariants, o.invariants) && predict.SamePoints(ls.fixed, o.fixed) &&
		ls.interp.Same(o.interp)
}

// same compares two loop statistics field by field, the TP trace by
// bits. (TestLoopStatsSameCoversEveryField pins the field list.)
func (st *LoopStats) same(o *LoopStats) bool {
	return st.Observed == o.Observed && st.SkippedDI == o.SkippedDI && st.SkippedAM == o.SkippedAM &&
		st.Recomputed == o.Recomputed && st.Mispredicted == o.Mispredicted &&
		st.Detected == o.Detected && st.Recovered == o.Recovered && st.Unrecovered == o.Unrecovered &&
		st.Phases == o.Phases && st.Adjusts == o.Adjusts && st.AMProbes == o.AMProbes && st.AMWrong == o.AMWrong &&
		st.DIDisabled == o.DIDisabled && st.AMDisabled == o.AMDisabled &&
		(st.TPTrace == nil) == (o.TPTrace == nil) && predict.SameFloats(st.TPTrace, o.TPTrace) &&
		(st.SigTrace == nil) == (o.SigTrace == nil) && slices.Equal(st.SigTrace, o.SigTrace)
}

// LoopEnter implements machine.Hooks.
func (m *Manager) LoopEnter(mc *machine.Machine, id int, invariants []uint64) error {
	info := m.mod.LoopByID(id)
	if info == nil {
		return fmt.Errorf("rtm: unknown loop id %d", id)
	}
	ls := m.loops[id]
	if ls == nil {
		ls = &loopState{info: info, interp: predict.NewInterp(m.tpFor(id, ""))}
		m.loops[id] = ls
	}
	ls.interp.Reset()
	ls.invariants = append(ls.invariants[:0], invariants...)
	ls.sinceAdj = 0
	ls.active = true
	m.pendingMemoArgs = nil
	return nil
}

func (m *Manager) tpFor(id int, sig string) float64 {
	if q := m.cfg.QoS[id]; q != nil {
		if tp := q.TPFor(sig); tp > 0 {
			return tp
		}
	}
	return m.cfg.DefaultTP
}

// toTrend converts raw stored bits into trend space.
func toTrend(bits uint64, isFloat bool) float64 {
	if isFloat {
		return math.Float64frombits(bits)
	}
	return float64(int64(bits))
}

// Observe implements machine.Hooks: called just before the hot store.
func (m *Manager) Observe(mc *machine.Machine, id int, iter int64, value uint64, addr int64) error {
	ls := m.loops[id]
	st := m.Stats[id]
	if ls == nil || !ls.active {
		return fmt.Errorf("rtm: observe for inactive loop %d", id)
	}
	mc.Charge(costObserve)
	old, err := mc.Mem.LoadWord(addr) // pre-store value for recompute
	if err != nil {
		return err
	}
	p := predict.Point{
		Iter: iter,
		V:    toTrend(value, ls.info.ValueIsFloat),
		Bits: value,
		Addr: addr,
		Old:  old,
	}
	memo := m.memoTable(id)
	if memo != nil && !st.AMDisabled {
		mc.Charge(costMemoSave(len(m.memoParamTypes)))
		p.MemoIn = m.pendingMemoArgs
		m.pendingMemoArgs = nil
	}
	if m.cfg.ForceCP[id] || st.DIDisabled {
		// Conventional protection emulation: exact-validate right away.
		return m.exactValidate(mc, ls, st, p, false)
	}
	if m.cfg.DisableDI {
		return m.secondLevel(mc, ls, st, p)
	}
	if m.cfg.FixedStride > 0 {
		ls.fixed = append(ls.fixed, p)
		if len(ls.fixed) >= m.cfg.FixedStride {
			phase := ls.fixed
			ls.fixed = nil
			st.Phases++
			mc.Charge(costCutAdmin)
			return m.validatePhase(mc, ls, st, phase)
		}
		return nil
	}
	phase, cut := ls.interp.Observe(p)
	if cut {
		mc.Charge(costCutAdmin)
		st.Phases++
		if err := m.validatePhase(mc, ls, st, phase); err != nil {
			return err
		}
	}
	// Periodic observe/adjust cycle (Figure 6).
	ls.sinceAdj++
	if m.cfg.Window > 0 && ls.sinceAdj >= m.cfg.Window {
		ls.sinceAdj = 0
		st.Adjusts++
		mc.Charge(costAdjust)
		sig := Signature(ls.interp.Changes)
		ls.interp.Changes = ls.interp.Changes[:0]
		ls.interp.TP = m.tpFor(id, sig)
		st.SigTrace = append(st.SigTrace, sig)
		st.TPTrace = append(st.TPTrace, ls.interp.TP)
		m.checkDisable(st)
	}
	return nil
}

// checkDisable applies the QoS model's safety valves: predictors that
// perform badly at run time are switched off (§5). The thresholds are
// deliberately loose; the paper never observed DI disabling either.
func (m *Manager) checkDisable(st *LoopStats) {
	if st.Observed > 256 && !st.DIDisabled {
		bad := float64(st.Mispredicted) / float64(st.Observed)
		if bad > 0.95 {
			st.DIDisabled = true
		}
	}
	if st.AMProbes > 64 && !st.AMDisabled {
		if float64(st.AMWrong)/float64(st.AMProbes) > 0.5 {
			st.AMDisabled = true
		}
	}
}

// LoopExit implements machine.Hooks.
func (m *Manager) LoopExit(mc *machine.Machine, id int) error {
	ls := m.loops[id]
	st := m.Stats[id]
	if ls == nil || !ls.active {
		return nil // exit block reached without entering (zero-trip or outer path)
	}
	ls.active = false
	var phase []predict.Point
	if m.cfg.FixedStride > 0 {
		phase = ls.fixed
		ls.fixed = nil
	} else {
		phase = ls.interp.Flush()
	}
	if len(phase) == 0 {
		return nil
	}
	st.Phases++
	return m.validatePhase(mc, ls, st, phase)
}

// validatePhase fuzzy-validates a completed phase: interiors against
// the linear interpolant, endpoints (which interpolation cannot
// estimate) through the second-level predictor or re-computation.
func (m *Manager) validatePhase(mc *machine.Machine, ls *loopState, st *LoopStats, phase []predict.Point) error {
	if len(phase) == 0 {
		return nil
	}
	ar := ls.info.AR(m.cfg.AR)
	for i, p := range phase {
		if p.Validated {
			continue // endpoint shared with the previous phase
		}
		if i > 0 && i < len(phase)-1 {
			mc.Charge(costValidate)
			if predict.Accepted(phase, i, ar) {
				st.Observed++
				st.SkippedDI++
				continue
			}
		}
		if err := m.secondLevel(mc, ls, st, p); err != nil {
			return err
		}
	}
	return nil
}

// secondLevel tries approximate memoization, then falls back to exact
// validation by re-computation.
func (m *Manager) secondLevel(mc *machine.Machine, ls *loopState, st *LoopStats, p predict.Point) error {
	memo := m.memoTable(ls.info.ID)
	if memo != nil && !st.AMDisabled && p.MemoIn != nil {
		mc.Charge(costMemoLookup(len(p.MemoIn)))
		st.AMProbes++
		if v, ok := memo.Lookup(p.MemoIn); ok {
			if predict.RelDiff(p.V, v) <= ls.info.AR(m.cfg.AR) {
				st.Observed++
				st.SkippedAM++
				return nil
			}
			st.AMWrong++
		}
	}
	return m.exactValidate(mc, ls, st, p, true)
}

func (m *Manager) memoTable(id int) *predict.MemoTable {
	if m.cfg.DisableMemo {
		return nil
	}
	return m.cfg.Memo[id]
}

// exactValidate re-computes the element; a mismatch means a possible
// fault, answered with a second re-computation and TMR-style majority
// (§2's recovery via re-computation). fromPrediction marks elements
// that reached here after a failed prediction (mispredictions).
func (m *Manager) exactValidate(mc *machine.Machine, ls *loopState, st *LoopStats, p predict.Point, fromPrediction bool) error {
	st.Observed++
	st.Recomputed++
	r1, err := mc.CallRecompute(ls.info, p.Iter, ls.invariants, true, p.Addr, p.Old)
	if err != nil {
		return err
	}
	if r1 == p.Bits {
		if fromPrediction {
			st.Mispredicted++
		}
		return nil
	}
	// Possible fault: second re-computation and majority vote.
	st.Detected++
	r2, err := mc.CallRecompute(ls.info, p.Iter, ls.invariants, true, p.Addr, p.Old)
	if err != nil {
		return err
	}
	mc.Charge(costRecoverFix)
	switch {
	case r1 == r2:
		// The original copy was corrupted: repair memory.
		if err := mc.Mem.StoreWord(p.Addr, r1); err != nil {
			return err
		}
		st.Recovered++
	case p.Bits == r2:
		// The first re-computation was corrupted; the original stands.
		st.Recovered++
	default:
		st.Unrecovered++
	}
	return nil
}
