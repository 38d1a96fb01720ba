package rtm

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"rskip/internal/analysis"
	"rskip/internal/ir"
	"rskip/internal/lower"
	"rskip/internal/machine"
	"rskip/internal/transform"
)

func TestSignature(t *testing.T) {
	// All changes tiny: bin 0 dominates.
	sig := Signature([]float64{0.01, 0.02, 0.03, 0.0})
	if !strings.HasPrefix(sig, "0") {
		t.Errorf("flat changes signature = %q, want leading 0", sig)
	}
	// All chaotic: bin 3 dominates.
	sig = Signature([]float64{5, 9, 2, 100})
	if !strings.HasPrefix(sig, "3") {
		t.Errorf("chaotic signature = %q, want leading 3", sig)
	}
	if len(sig) != NumSigBins {
		t.Errorf("signature length %d, want %d", len(sig), NumSigBins)
	}
	// Deterministic.
	if Signature([]float64{0.1, 0.5}) != Signature([]float64{0.1, 0.5}) {
		t.Error("signature not deterministic")
	}
	// Empty input is stable.
	if got := Signature(nil); len(got) != NumSigBins {
		t.Errorf("empty signature %q", got)
	}
}

func TestQoSModel(t *testing.T) {
	q := &QoSModel{Default: 0.25, BySig: map[string]float64{"0123": 1.5}}
	if q.TPFor("0123") != 1.5 {
		t.Error("known signature ignored")
	}
	if q.TPFor("3210") != 0.25 {
		t.Error("unknown signature should fall back to default")
	}
	var nilQ *QoSModel
	if nilQ.TPFor("x") != 0 {
		t.Error("nil model should return 0")
	}
}

// buildPP compiles a kernel and returns its PP module + kernel index.
func buildPP(t *testing.T, src string) (*ir.Module, int) {
	t.Helper()
	mod, err := lower.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	rsk, err := transform.ApplyRSkip(mod, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rsk.Loops) == 0 {
		t.Fatal("no PP loops")
	}
	return rsk, rsk.FuncByName("kernel")
}

const rampSrc = `
void kernel(float a[], float out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		float s = 0.0;
		for (int j = 0; j < 4; j = j + 1) {
			s = s + a[i + j];
		}
		out[i] = s;
	}
}
`

// runManaged executes the PP kernel under a Manager over a linear ramp
// input (highly predictable).
func runManaged(t *testing.T, cfg Config) (*Manager, *machine.Machine, []float64) {
	t.Helper()
	rsk, fi := buildPP(t, rampSrc)
	mgr := NewManager(rsk, cfg)
	m := machine.New(rsk, mgr.MachineConfig(machine.Config{}))
	n := 64
	a := m.Mem.Alloc(int64(n + 4))
	for i := 0; i < n+4; i++ {
		m.Mem.SetFloat(a+int64(i), float64(i)) // perfect ramp
	}
	out := m.Mem.Alloc(int64(n))
	if _, err := m.Run(fi, []uint64{uint64(a), uint64(out), uint64(n)}); err != nil {
		t.Fatal(err)
	}
	return mgr, m, m.Mem.ReadFloats(out, n)
}

func TestManagerSkipsOnLinearTrend(t *testing.T) {
	mgr, _, out := runManaged(t, DefaultConfig(0.2))
	var st *LoopStats
	for _, s := range mgr.Stats {
		st = s
	}
	if st == nil || st.Observed == 0 {
		t.Fatal("nothing observed")
	}
	if st.SkipRate() < 0.8 {
		t.Errorf("linear ramp skip rate %.2f, want > 0.8", st.SkipRate())
	}
	if st.Detected != 0 {
		t.Errorf("fault-free run detected %d faults", st.Detected)
	}
	// Output must be the ramp's 4-window sums.
	for i := 0; i < len(out); i++ {
		want := float64(4*i + 6)
		if math.Abs(out[i]-want) > 1e-9 {
			t.Fatalf("out[%d] = %g, want %g", i, out[i], want)
		}
	}
}

func TestManagerCountsEveryElementOnce(t *testing.T) {
	mgr, _, out := runManaged(t, DefaultConfig(0.2))
	total := 0
	for _, s := range mgr.Stats {
		total += s.Observed
	}
	if total != len(out) {
		t.Errorf("observed %d elements, want %d", total, len(out))
	}
	for _, s := range mgr.Stats {
		accounted := s.SkippedDI + s.SkippedAM + s.Recomputed
		if accounted != s.Observed {
			t.Errorf("element accounting: %d skipped/recomputed vs %d observed",
				accounted, s.Observed)
		}
	}
}

func TestManagerForceCPRecomputesAll(t *testing.T) {
	rsk, _ := buildPP(t, rampSrc)
	id := rsk.Loops[0].ID
	cfg := DefaultConfig(0.2)
	cfg.ForceCP = map[int]bool{id: true}
	mgr, _, _ := runManagedWith(t, rsk, cfg)
	st := mgr.Stats[id]
	if st.SkippedDI+st.SkippedAM != 0 {
		t.Error("CP mode must not skip")
	}
	if st.Recomputed != st.Observed {
		t.Errorf("CP mode recomputed %d of %d", st.Recomputed, st.Observed)
	}
	if st.Detected != 0 {
		t.Errorf("fault-free CP run detected %d", st.Detected)
	}
}

func runManagedWith(t *testing.T, rsk *ir.Module, cfg Config) (*Manager, *machine.Machine, []float64) {
	t.Helper()
	fi := rsk.FuncByName("kernel")
	mgr := NewManager(rsk, cfg)
	m := machine.New(rsk, mgr.MachineConfig(machine.Config{}))
	n := 64
	a := m.Mem.Alloc(int64(n + 4))
	for i := 0; i < n+4; i++ {
		m.Mem.SetFloat(a+int64(i), float64(i))
	}
	out := m.Mem.Alloc(int64(n))
	if _, err := m.Run(fi, []uint64{uint64(a), uint64(out), uint64(n)}); err != nil {
		t.Fatal(err)
	}
	return mgr, m, m.Mem.ReadFloats(out, n)
}

func TestManagerFixedStride(t *testing.T) {
	rsk, _ := buildPP(t, rampSrc)
	cfg := DefaultConfig(0.2)
	cfg.FixedStride = 8
	mgr, _, _ := runManagedWith(t, rsk, cfg)
	var st *LoopStats
	for _, s := range mgr.Stats {
		st = s
	}
	if st.Phases != 8 { // 64 elements / 8 per phase
		t.Errorf("fixed stride produced %d phases, want 8", st.Phases)
	}
	if st.SkipRate() == 0 {
		t.Error("fixed stride on a ramp should still skip interiors")
	}
}

func TestManagerRecoversInjectedCorruption(t *testing.T) {
	// Corrupt one stored element mid-run via a fault plan targeting the
	// value slice; the manager must detect the deviation, recompute,
	// and repair memory.
	rsk, fi := buildPP(t, rampSrc)
	mgr := NewManager(rsk, DefaultConfig(0.2))

	// Find the Target index of a value-tagged instruction: run once
	// fault-free with region marked and a probe plan far away.
	region := map[int]bool{}
	for bi := range rsk.Funcs[fi].Blocks {
		region[bi] = true
	}
	baseCfg := machine.Config{RegionBlocks: map[int]map[int]bool{fi: region}}

	recovered := false
	for target := uint64(20); target < 400 && !recovered; target += 13 {
		mgr2 := NewManager(rsk, DefaultConfig(0.2))
		cfg := mgr2.MachineConfig(baseCfg)
		cfg.Fault = &machine.FaultPlan{Kind: machine.FaultResultBit, Target: target, Bit: 61}
		m := machine.New(rsk, cfg)
		n := 64
		a := m.Mem.Alloc(int64(n + 4))
		for i := 0; i < n+4; i++ {
			m.Mem.SetFloat(a+int64(i), float64(i))
		}
		out := m.Mem.Alloc(int64(n))
		if _, err := m.Run(fi, []uint64{uint64(a), uint64(out), uint64(n)}); err != nil {
			continue
		}
		for _, st := range mgr2.Stats {
			if st.Recovered > 0 {
				recovered = true
				// Memory must hold the corrected ramp sums.
				vals := m.Mem.ReadFloats(out, n)
				for i := range vals {
					if math.Abs(vals[i]-float64(4*i+6)) > 1e-9 {
						t.Fatalf("recovery left out[%d] = %g", i, vals[i])
					}
				}
			}
		}
	}
	if !recovered {
		t.Error("no injected fault was detected and recovered")
	}
	_ = mgr
}

func TestPredictorCostsOrdering(t *testing.T) {
	di, am := PredictorCosts(6)
	if di.Instrs() == 0 || am.Instrs() <= di.Instrs() {
		t.Errorf("cost ordering wrong: di=%d am=%d", di.Instrs(), am.Instrs())
	}
	ratio := float64(am.Instrs()) / float64(di.Instrs())
	if ratio < 1.2 || ratio > 3.5 {
		t.Errorf("AM/DI cost ratio %.2f far from the paper's 1.84", ratio)
	}
}

// TestManagerStateResumes: replicas resumed from snapshots of a
// managed clean run end with the from-zero run's statistics (TP and
// signature traces included), counters and output — the manager's
// SaveState/RestoreState carry everything the rest of the run reads —
// and one snapshot seeds any number of replicas without being changed
// by them.
func TestManagerStateResumes(t *testing.T) {
	rsk, fi := buildPP(t, rampSrc)
	region := map[int]bool{}
	for bi := range rsk.Funcs[fi].Blocks {
		region[bi] = true
	}
	const n = 600
	run := func(c *machine.Capture, snap *machine.Snapshot) (*Manager, machine.RunResult, []float64) {
		mgr := NewManager(rsk, Config{AR: 0.2, DefaultTP: 0.25, Window: 8})
		cfg := mgr.MachineConfig(machine.Config{
			RegionBlocks: map[int]map[int]bool{fi: region},
			Capture:      c,
			Untimed:      snap != nil,
		})
		m := machine.New(rsk, cfg)
		defer m.Release()
		a := m.Mem.Alloc(n + 4)
		for i := 0; i < n+4; i++ {
			// A ramp with a step every 37 elements: phases cut, TPs adjust.
			m.Mem.SetFloat(a+int64(i), float64(i+(i/37)*50))
		}
		out := m.Mem.Alloc(n)
		var res machine.RunResult
		var err error
		if snap != nil {
			res, err = m.Resume(snap)
		} else {
			res, err = m.Run(fi, []uint64{uint64(a), uint64(out), n})
		}
		if err != nil {
			t.Fatal(err)
		}
		return mgr, res, m.Mem.ReadFloats(out, n)
	}
	c := machine.NewCapture(4)
	clean, want, wantOut := run(c, nil)
	want.Cycles = 0
	if c.Len() == 0 {
		t.Fatal("managed run captured no snapshots")
	}
	for _, st := range clean.Stats {
		if st.Phases < 2 || st.Adjusts == 0 || st.Recomputed == 0 {
			t.Fatalf("clean run exercised too little manager state: %+v", *st)
		}
	}
	for _, target := range []uint64{want.Region / 3, want.Region / 3, want.Region - 1} {
		snap := c.Latest(target, ^uint64(0))
		if snap == nil {
			t.Fatalf("no snapshot before region index %d", target)
		}
		mgr, got, gotOut := run(nil, snap)
		if got != want {
			t.Errorf("resumed at %d: %+v, want %+v", snap.Region(), got, want)
		}
		if !reflect.DeepEqual(mgr.Stats, clean.Stats) {
			t.Errorf("resumed at %d: stats diverged", snap.Region())
		}
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Errorf("resumed at %d: output diverged", snap.Region())
		}
	}
}

// perturb sets field i of the struct v points to away from its zero
// value, whatever its kind; it reports false for kinds it cannot set.
func perturb(v reflect.Value, i int) bool {
	f := v.Elem().Field(i)
	switch f.Kind() {
	case reflect.Int:
		f.SetInt(1)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
	default:
		return false
	}
	return true
}

// TestLoopStatsSameCoversEveryField: the typed statistics equality
// notices a change in any field, keeps a nil trace apart from an empty
// one (both are reported as they are), and compares TPs by bits.
func TestLoopStatsSameCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(LoopStats{})
	for i := 0; i < typ.NumField(); i++ {
		var a, b LoopStats
		if !perturb(reflect.ValueOf(&b), i) {
			t.Fatalf("field %s has a kind the test cannot perturb", typ.Field(i).Name)
		}
		if a.same(&b) || b.same(&a) {
			t.Errorf("a change in %s goes unnoticed", typ.Field(i).Name)
		}
	}
	a, b := LoopStats{TPTrace: []float64{}}, LoopStats{}
	if a.same(&b) {
		t.Error("an empty TP trace equals a nil one")
	}
	a, b = LoopStats{TPTrace: []float64{0}}, LoopStats{TPTrace: []float64{math.Copysign(0, -1)}}
	if a.same(&b) {
		t.Error("TP traces holding +0 and -0 compare equal")
	}
}

// TestManagerSameState: a manager's state equals its own SaveState
// result at any point of a run and stops equalling it once the run
// moves on; pending memo inputs keep nil apart from empty.
func TestManagerSameState(t *testing.T) {
	rsk, fi := buildPP(t, rampSrc)
	region := map[int]bool{}
	for bi := range rsk.Funcs[fi].Blocks {
		region[bi] = true
	}
	mgr := NewManager(rsk, Config{AR: 0.2, DefaultTP: 0.25, Window: 8})
	if !mgr.SameState(mgr.SaveState()) {
		t.Fatal("a fresh manager differs from its own saved state")
	}
	saved := mgr.SaveState()
	m := machine.New(rsk, mgr.MachineConfig(machine.Config{RegionBlocks: map[int]map[int]bool{fi: region}}))
	defer m.Release()
	const n = 200
	a := m.Mem.Alloc(n + 4)
	for i := 0; i < n+4; i++ {
		m.Mem.SetFloat(a+int64(i), float64(i+(i/37)*50))
	}
	out := m.Mem.Alloc(n)
	if _, err := m.Run(fi, []uint64{uint64(a), uint64(out), n}); err != nil {
		t.Fatal(err)
	}
	if mgr.SameState(saved) {
		t.Error("a manager that ran a loop still equals its fresh state")
	}
	end := mgr.SaveState()
	if !mgr.SameState(end) {
		t.Error("a manager differs from its own saved state after a run")
	}
	mgr.pendingMemoArgs = []float64{}
	if mgr.SameState(end) {
		t.Error("empty pending memo inputs equal none")
	}
	mgr.pendingMemoArgs = nil
	for _, ls := range mgr.loops {
		ls.sinceAdj++
		if mgr.SameState(end) {
			t.Error("a changed loop state goes unnoticed")
		}
		ls.sinceAdj--
	}
}
