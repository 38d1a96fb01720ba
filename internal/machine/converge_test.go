package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rskip/internal/ir"
)

// TestConvergedMatchesFromZero: a replica that checks for convergence
// against the clean run's capture ends exactly like the from-zero
// replica — counters, error, fault attribution and output — for every
// fault kind on both engines, whether it starts from instruction 0 or
// resumes from a snapshot; and the early exit engages.
func TestConvergedMatchesFromZero(t *testing.T) {
	mod, fi, cfg := snapHarness(t)
	for _, capBe := range allBackends {
		c := NewCapture(4)
		clean := captureRun(t, mod, fi, cfg, capBe, c)
		if c.final == nil || len(c.final.frames) != 0 || c.final.c != clean.Counter {
			t.Fatalf("capture on %v did not record the run's end", capBe)
		}
		budget := 2 * clean.Instrs
		// Convergences found by comparing state at a check point, per
		// engine (the rest struck a dead register).
		compared := map[Backend]int{}
		for _, be := range allBackends {
			for k := 0; k < NumFaultKinds; k++ {
				for frac := uint64(1); frac < 8; frac++ {
					plan := FaultPlan{Kind: FaultKind(k), Target: clean.Region * frac / 8,
						Bit: uint(5*(k+1)) + uint(frac), Pick: k + int(frac), Width: 3}
					rcfg := cfg
					rcfg.Backend, rcfg.Untimed, rcfg.MaxInstrs = be, true, budget
					rcfg.Fault = &plan
					fresh := New(mod, rcfg)
					fargs := snapSetup(fresh)
					want, werr := fresh.Run(fi, fargs)
					rcfg.Converge = c
					for _, snap := range []*Snapshot{nil, c.Latest(plan.Target, budget)} {
						label := fmt.Sprintf("capture %v, run %v, %v@%d, resumed=%v", capBe, be, plan.Kind, plan.Target, snap != nil)
						m := New(mod, rcfg)
						args := snapSetup(m)
						var got RunResult
						var gerr error
						if snap != nil {
							got, gerr = m.Resume(snap)
						} else {
							got, gerr = m.Run(fi, args)
						}
						skipped := m.Work().Converged
						ok := skipped > 0
						if ok {
							if !m.conv.dead {
								compared[be]++
							}
							if werr != nil || skipped > got.Instrs {
								t.Errorf("%s: converged (skipping %d) a run that ends %+v, %v", label, skipped, want, werr)
							}
						}
						if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
							t.Errorf("%s: converged=%v (%+v, %v), fresh (%+v, %v)", label, ok, got, gerr, want, werr)
						}
						gt, gop, gfn := m.FaultSite()
						wt, wop, wfn := fresh.FaultSite()
						if m.FaultFired() != fresh.FaultFired() || gt != wt || gop != wop || gfn != wfn {
							t.Errorf("%s: fault attribution diverged", label)
						}
						if werr == nil && !reflect.DeepEqual(snapOutput(m, args), snapOutput(fresh, fargs)) {
							t.Errorf("%s: output diverged", label)
						}
						m.Release()
					}
					fresh.Release()
				}
			}
		}
		for _, be := range allBackends {
			if compared[be] == 0 {
				t.Errorf("capture on %v, run %v: no replica converged at a check point", capBe, be)
			}
		}
	}
}

// TestConvergenceOnlyWhereExact: runs that could not take the clean
// run's end exactly never converge — no fault armed, tracing on, or a
// budget below the clean run's length — and a timed machine or a
// capture of another module is a caller bug.
func TestConvergenceOnlyWhereExact(t *testing.T) {
	mod, fi, cfg := snapHarness(t)
	c := NewCapture(4)
	clean := captureRun(t, mod, fi, cfg, BackendCompiled, c)
	base := cfg
	base.Untimed, base.MaxInstrs, base.Converge = true, 2*clean.Instrs, c
	run := func(cfg Config) bool {
		m := New(mod, cfg)
		defer m.Release()
		if _, err := m.Run(fi, snapSetup(m)); err != nil {
			t.Fatal(err)
		}
		return m.Work().Converged > 0
	}
	// A register-file strike early in the region on a register whose
	// replica converges when it may check.
	for pick := 0; base.Fault == nil; pick++ {
		if pick == mod.Funcs[fi].NumRegs {
			t.Fatal("no register-file strike converges")
		}
		base.Fault = &FaultPlan{Kind: FaultRegFile, Target: clean.Region / 8, Pick: pick}
		if !run(base) {
			base.Fault = nil
		}
	}
	var trace strings.Builder
	for name, mut := range map[string]func(*Config){
		"no fault": func(c *Config) { c.Fault = nil },
		"traced":   func(c *Config) { c.Trace, c.TraceLimit = &trace, 10 },
		"budget":   func(c *Config) { c.MaxInstrs = clean.Instrs - 1 },
	} {
		rcfg := base
		mut(&rcfg)
		if name == "budget" {
			m := New(mod, rcfg)
			_, err := m.Run(fi, snapSetup(m))
			if ok := m.Work().Converged > 0; ok || err == nil {
				t.Errorf("%s: converged %v, err %v; want a hang", name, ok, err)
			}
			m.Release()
			continue
		}
		if run(rcfg) {
			t.Errorf("%s: converged", name)
		}
	}
	other, _ := faultHarness(t)
	timed := base
	timed.Untimed = false
	for name, build := range map[string]func(){
		"timed":        func() { New(mod, timed) },
		"other module": func() { New(other, base) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("New did not panic")
				}
			}()
			build()
		})
	}
}

// TestMemorySameAs: memory compares by meaning — a page one side does
// not hold reads as zeros, so an all-zero page equals an absent one —
// and any differing word, on either side of a page boundary or far
// from the segments, or a differing segment pointer is a mismatch.
func TestMemorySameAs(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.SetInt(5, 9)
	b.SetInt(5, 9)
	b.SetInt(pageSize, 0) // a zero page
	b.SetInt(1<<20, 0)
	st := a.snapshot()
	if !b.sameAs(&st) {
		t.Error("zero pages differ from the unwritten memory")
	}
	st = b.snapshot()
	if !a.sameAs(&st) {
		t.Error("unwritten memory differs from zero pages")
	}
	for name, mut := range map[string]func(m *Memory){
		"word":           func(m *Memory) { m.SetInt(99, 1) },
		"last page word": func(m *Memory) { m.SetInt(pageSize-1, 1) },
		"next page word": func(m *Memory) { m.SetInt(pageSize, 1) },
		"stack word":     func(m *Memory) { m.SetInt(stackTop-1, 1) },
		"far page":       func(m *Memory) { m.SetInt(MappedLimit-1, 1) },
		"heap end":       func(m *Memory) { m.Alloc(1) },
		"stack":          func(m *Memory) { m.pushStack(1) },
	} {
		m := NewMemory()
		m.SetInt(5, 9)
		mut(m)
		st := a.snapshot()
		if m.sameAs(&st) {
			t.Errorf("%s: a changed memory compares equal", name)
		}
		st = m.snapshot()
		if a.sameAs(&st) {
			t.Errorf("%s: memory compares equal to a changed snapshot", name)
		}
	}
}

// stateHooks is a StatefulHooks whose whole run state is one number.
type stateHooks struct {
	captureHooks
	n int
}

func (h *stateHooks) SaveState() any           { return h.n }
func (h *stateHooks) RestoreState(state any)   { h.n = state.(int) }
func (h *stateHooks) SameState(saved any) bool { return h.n == saved.(int) }

// sameState reports whether the run's state equals snapshot s in
// everything the rest of the run reads, copy isolation off and with no
// record of the clean run's memory accesses.
func (m *Machine) sameState(s *Snapshot) bool {
	return m.converges(s, nil)
}

// sameAs reports whether the memory means the same as a saved one.
func (m *Memory) sameAs(st *memState) bool {
	return m.eachDiff(st, func(int64) bool { return false })
}

// TestSameStateCoversSnapshot: the convergence equality holds between
// a machine and the snapshot it was restored from — also when the
// compiled engine's per-segment counts are not yet folded, and with a
// bit flipped in a dead register or in the retDst a callee's return
// overwrites — and fails on a change to any other part of the state a
// snapshot holds: each counter, each frame field, a live register, the
// override, lastRet, hookOp, the hook state and memory, whose every
// differing word counts when no record of the clean run's accesses
// says it is dead.
func TestSameStateCoversSnapshot(t *testing.T) {
	mod, fi, cfg := snapHarness(t)
	cfg.Hooks = &stateHooks{n: 7}
	// The reference engine snapshots between any two instructions, so
	// some snapshot lands inside helper, with a caller frame waiting at
	// its return point.
	c := NewCapture(16)
	captureRun(t, mod, fi, cfg, BackendReference, c)
	var snap *Snapshot
	for _, s := range c.snaps {
		if len(s.frames) >= 2 {
			snap = s
		}
	}
	if snap == nil {
		t.Fatal("no snapshot with a caller frame")
	}
	restored := func() *Machine {
		rcfg := cfg
		rcfg.Untimed, rcfg.Hooks = true, &stateHooks{}
		m := New(mod, rcfg)
		snapSetup(m)
		m.restore(snap)
		return m
	}
	top := len(snap.frames) - 1
	live := func(m *Machine, i int) []uint64 {
		f := &m.fr[i]
		return m.code.liveAt(f.fi, f.block, f.ip)
	}
	regWith := func(m *Machine, i int, want bool) int {
		for r := range m.fr[i].regs {
			if isLive(live(m, i), ir.Reg(r)) == want {
				return r
			}
		}
		t.Fatalf("frame %d has no register with liveness %v", i, want)
		return 0
	}

	same := map[string]func(m *Machine){
		"restored": func(m *Machine) {},
		"unfolded segment counts": func(m *Machine) {
			// Move one segment execution from the folded counters back
			// into segHits, as if it ran after the last fold.
			for si := range m.ccode.segs {
				seg := &m.ccode.segs[si]
				if seg.internalDyn != 0 || len(seg.ops) == 0 || m.C.ops[seg.ops[0].op] < seg.ops[0].n {
					continue
				}
				for t, n := range seg.tags {
					m.C.ByTag[t] -= n
				}
				for _, od := range seg.ops {
					m.C.ops[od.op] -= od.n
				}
				m.segHits[si]++
				return
			}
			t.Fatal("no segment to unfold")
		},
		"dead register": func(m *Machine) { m.fr[top].regs[regWith(m, top, false)] ^= 1 },
		"callee retDst": func(m *Machine) { m.fr[top-1].regs[m.fr[top].retDst] ^= 1 },
	}
	for name, mut := range same {
		m := restored()
		mut(m)
		if !m.sameState(snap) {
			t.Errorf("%s: the state differs from the snapshot it was restored from", name)
		}
		m.Release()
	}

	differ := map[string]func(m *Machine){
		"Dyn":            func(m *Machine) { m.C.Dyn++ },
		"Region":         func(m *Machine) { m.C.Region++ },
		"Runtime":        func(m *Machine) { m.C.Runtime++ },
		"Internal":       func(m *Machine) { m.C.Internal++ },
		"ByTag":          func(m *Machine) { m.C.ByTag[ir.TagValue]++ },
		"ops":            func(m *Machine) { m.C.ops[ir.OpAdd]++ },
		"frames":         func(m *Machine) { m.fr = m.fr[:top] },
		"block":          func(m *Machine) { m.fr[top].block++ },
		"ip":             func(m *Machine) { m.fr[top].ip++ },
		"stackMark":      func(m *Machine) { m.fr[top].stackMark++ },
		"retDst":         func(m *Machine) { m.fr[top].retDst++ },
		"inRegion":       func(m *Machine) { m.fr[top].inRegion = !m.fr[top].inRegion },
		"savedArgs":      func(m *Machine) { m.fr[top].savedArgs = []uint64{} },
		"live register":  func(m *Machine) { m.fr[top].regs[regWith(m, top, true)] ^= 1 },
		"caller live":    func(m *Machine) { m.fr[top-1].regs[regWith(m, top-1, true)] ^= 1 },
		"override":       func(m *Machine) { m.overrideActive = true },
		"override addr":  func(m *Machine) { m.overrideAddr++ },
		"override value": func(m *Machine) { m.overrideVal++ },
		"lastRet":        func(m *Machine) { m.lastRet++ },
		"hookOp":         func(m *Machine) { m.hookOp = ir.OpRTLoopExit },
		"hook state":     func(m *Machine) { m.cfg.Hooks.(*stateHooks).n++ },
		"memory word":    func(m *Machine) { m.Mem.SetInt(0, m.Mem.GetInt(0)+1) },
		"page":           func(m *Machine) { m.Mem.SetInt(snapFar+snapN+7, 1) },
		"heap end":       func(m *Machine) { m.Mem.Alloc(1) },
		"stack pointer":  func(m *Machine) { m.Mem.stackPtr-- },
	}
	for name, mut := range differ {
		m := restored()
		mut(m)
		if m.sameState(snap) {
			t.Errorf("%s: a changed state compares equal to the snapshot", name)
		}
		m.Release()
	}
}
