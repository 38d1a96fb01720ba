package machine

import (
	"fmt"
	"reflect"
	"testing"

	"rskip/internal/ir"
)

// snapHarness builds a kernel whose run spans nested frames with
// stack arrays (helper), heap stores (out) and sparse-page stores past
// the dense arena (far), with every kernel block in-region.
func snapHarness(t *testing.T) (*ir.Module, int, Config) {
	t.Helper()
	mod := compile(t, `
int helper(int x) {
	int t[4];
	t[0] = x;
	t[1] = x * 3;
	return t[0] + t[1];
}
void kernel(int a[], int out[], int far[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		int s = 0;
		for (int j = 0; j < 4; j = j + 1) { s = s + helper(a[i + j]); }
		out[i] = s;
		far[i] = s + 1;
	}
}`)
	fi := mod.FuncByName("kernel")
	region := map[int]bool{}
	for bi := range mod.Funcs[fi].Blocks {
		region[bi] = true
	}
	return mod, fi, Config{RegionBlocks: map[int]map[int]bool{fi: region}, TraceFn: -1}
}

const (
	snapN   = 300
	snapFar = int64(1) << 23 // past the default dense arena: sparse pages
)

// snapSetup writes the inputs, as an instance's Setup would.
func snapSetup(m *Machine) []uint64 {
	a := m.Mem.Alloc(snapN + 4)
	for i := int64(0); i < snapN+4; i++ {
		m.Mem.SetInt(a+i, 7*i%13-5)
	}
	out := m.Mem.Alloc(snapN)
	return []uint64{uint64(a), uint64(out), uint64(snapFar), snapN}
}

// snapOutput reads the heap and sparse-page outputs.
func snapOutput(m *Machine, args []uint64) []int64 {
	out := m.Mem.ReadInts(int64(args[1]), snapN)
	return append(out, m.Mem.ReadInts(snapFar, snapN)...)
}

// captureRun runs the kernel timed on backend be, capturing into c.
func captureRun(t *testing.T, mod *ir.Module, fi int, cfg Config, be Backend, c *Capture) RunResult {
	t.Helper()
	cfg.Backend = be
	cfg.Capture = c
	m := New(mod, cfg)
	defer m.Release()
	res, err := m.Run(fi, snapSetup(m))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResumeMatchesFromZero: a run resumed from the latest snapshot
// before its fault target equals the from-zero run in every counter,
// the output, the error and the fault attribution — for every fault
// kind, with snapshots of either engine resumed on either engine.
func TestResumeMatchesFromZero(t *testing.T) {
	mod, fi, cfg := snapHarness(t)
	for _, capBe := range allBackends {
		c := NewCapture(4)
		clean := captureRun(t, mod, fi, cfg, capBe, c)
		if c.Len() < 4 || c.Len() > 8 {
			t.Fatalf("capture on %v holds %d snapshots of a %d-instruction region, want 4..8",
				capBe, c.Len(), clean.Region)
		}
		budget := 2 * clean.Instrs
		for _, be := range allBackends {
			for k := 0; k < NumFaultKinds; k++ {
				for _, frac := range []uint64{2, 3, 5, 7} {
					plan := FaultPlan{Kind: FaultKind(k), Target: clean.Region * frac / 8,
						Bit: uint(5 * (k + 1)), Pick: k + int(frac), Width: 3}
					label := fmt.Sprintf("capture %v, resume %v, %v@%d", capBe, be, plan.Kind, plan.Target)
					snap := c.Latest(plan.Target, budget)
					if snap == nil {
						t.Fatalf("%s: no snapshot", label)
					}
					rcfg := cfg
					rcfg.Backend, rcfg.Untimed, rcfg.MaxInstrs = be, true, budget
					rcfg.Fault = &plan
					fresh := New(mod, rcfg)
					fargs := snapSetup(fresh)
					want, werr := fresh.Run(fi, fargs)
					resumed := New(mod, rcfg)
					rargs := snapSetup(resumed)
					got, gerr := resumed.Resume(snap)
					if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Errorf("%s: resumed (%+v, %v), fresh (%+v, %v)", label, got, gerr, want, werr)
					}
					if resumed.FaultFired() != fresh.FaultFired() {
						t.Errorf("%s: fired %v, fresh %v", label, resumed.FaultFired(), fresh.FaultFired())
					}
					gt, gop, gfn := resumed.FaultSite()
					wt, wop, wfn := fresh.FaultSite()
					if gt != wt || gop != wop || gfn != wfn {
						t.Errorf("%s: fault site (%v %v %d), fresh (%v %v %d)", label, gt, gop, gfn, wt, wop, wfn)
					}
					if werr == nil && !reflect.DeepEqual(snapOutput(resumed, rargs), snapOutput(fresh, fargs)) {
						t.Errorf("%s: output diverged", label)
					}
					fresh.Release()
					resumed.Release()
				}
			}
		}
	}
}

// TestCaptureLatest: Latest picks the last snapshot at or before the
// target whose prefix fits the budget.
func TestCaptureLatest(t *testing.T) {
	mod, fi, cfg := snapHarness(t)
	c := NewCapture(4)
	clean := captureRun(t, mod, fi, cfg, BackendCompiled, c)
	if c.Words() == 0 || c.Elapsed() <= 0 {
		t.Errorf("capture reports %d words in %v", c.Words(), c.Elapsed())
	}
	all := ^uint64(0)
	var prev *Snapshot
	for _, s := range c.snaps {
		if prev != nil && (s.Region() <= prev.Region() || s.Instrs() <= prev.Instrs()) {
			t.Fatalf("snapshots out of order: %d/%d after %d/%d", s.Region(), s.Instrs(), prev.Region(), prev.Instrs())
		}
		if got := c.Latest(s.Region(), all); got != s {
			t.Errorf("Latest(%d) = region %d, want the snapshot at it", s.Region(), got.Region())
		}
		if got := c.Latest(s.Region()-1, all); got != prev {
			t.Errorf("Latest(%d) did not fall back to the previous snapshot", s.Region()-1)
		}
		if got := c.Latest(all, s.Instrs()-1); got != prev {
			t.Errorf("Latest under budget %d did not fall back to the previous snapshot", s.Instrs()-1)
		}
		prev = s
	}
	if got := c.Latest(clean.Region, all); got != prev {
		t.Error("Latest at the region end is not the last snapshot")
	}
	var none *Capture
	if none.Latest(all, all) != nil || none.Len() != 0 || none.Words() != 0 || none.Elapsed() != 0 {
		t.Error("nil capture is not empty")
	}
}

// TestCaptureNeedsStatefulHooks: a run whose hooks cannot save their
// state captures nothing, so its replicas run from instruction 0.
func TestCaptureNeedsStatefulHooks(t *testing.T) {
	mod, fi, cfg := snapHarness(t)
	cfg.Hooks = &captureHooks{}
	c := NewCapture(4)
	captureRun(t, mod, fi, cfg, BackendCompiled, c)
	if c.Len() != 0 {
		t.Errorf("captured %d snapshots with stateless hooks", c.Len())
	}
}

// TestResumeRejectsMisuse: resuming on a timed machine, another
// module, or past the fault target or budget is a caller bug.
func TestResumeRejectsMisuse(t *testing.T) {
	mod, fi, cfg := snapHarness(t)
	c := NewCapture(4)
	captureRun(t, mod, fi, cfg, BackendCompiled, c)
	snap := c.Latest(^uint64(0), ^uint64(0))
	other, _ := faultHarness(t)
	cases := []struct {
		name string
		mod  *ir.Module
		mut  func(*Config)
	}{
		{"timed", mod, func(c *Config) { c.Untimed = false }},
		{"other module", other, func(*Config) {}},
		{"target before snapshot", mod, func(c *Config) { c.Fault = &FaultPlan{Target: snap.Region() - 1} }},
		{"budget before snapshot", mod, func(c *Config) { c.MaxInstrs = snap.Instrs() - 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rcfg := cfg
			rcfg.Untimed = true
			tc.mut(&rcfg)
			m := New(tc.mod, rcfg)
			defer func() {
				if recover() == nil {
					t.Error("Resume did not panic")
				}
			}()
			m.Resume(snap)
		})
	}
}
