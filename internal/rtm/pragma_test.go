package rtm

import (
	"math/rand"
	"testing"

	"rskip/internal/analysis"
	"rskip/internal/lower"
	"rskip/internal/machine"
	"rskip/internal/transform"
)

// TestPragmaZeroARDisablesFuzzyAcceptance runs the same noisy kernel
// with and without `#pragma rskip ar(0)`. Under AR0 only bit-exact
// interpolation survives fuzzy validation, so the noisy loop's skip
// rate must collapse while the unannotated build keeps skipping.
func TestPragmaZeroARDisablesFuzzyAcceptance(t *testing.T) {
	const body = `
void kernel(float a[], float out[], int n) {
	%s
	for (int i = 0; i < n; i = i + 1) {
		float s = 0.0;
		for (int j = 0; j < 4; j = j + 1) { s = s + a[i + j]; }
		out[i] = s;
	}
}
`
	run := func(pragma string) float64 {
		src := ""
		if pragma == "" {
			src = `
void kernel(float a[], float out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		float s = 0.0;
		for (int j = 0; j < 4; j = j + 1) { s = s + a[i + j]; }
		out[i] = s;
	}
}`
		} else {
			src = `
void kernel(float a[], float out[], int n) {
	#pragma rskip ar(0)
	for (int i = 0; i < n; i = i + 1) {
		float s = 0.0;
		for (int j = 0; j < 4; j = j + 1) { s = s + a[i + j]; }
		out[i] = s;
	}
}`
		}
		mod, err := lower.Compile("t", src)
		if err != nil {
			t.Fatal(err)
		}
		rsk, err := transform.ApplyRSkip(mod, analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rsk.Loops) != 1 {
			t.Fatal("no PP loop")
		}
		mgr := NewManager(rsk, DefaultConfig(0.2))
		m := machine.New(rsk, mgr.MachineConfig(machine.Config{}))
		rng := rand.New(rand.NewSource(4))
		n := 128
		a := m.Mem.Alloc(int64(n + 4))
		for i := 0; i < n+4; i++ {
			// Noisy ramp: interiors deviate a few percent from the chord.
			m.Mem.SetFloat(a+int64(i), float64(i)+rng.Float64()*0.3)
		}
		out := m.Mem.Alloc(int64(n))
		fi := rsk.FuncByName("kernel")
		if _, err := m.Run(fi, []uint64{uint64(a), uint64(out), uint64(n)}); err != nil {
			t.Fatal(err)
		}
		var rate float64
		for _, st := range mgr.Stats {
			rate = st.SkipRate()
			if st.Detected != 0 {
				t.Fatalf("fault-free run flagged %d detections", st.Detected)
			}
		}
		return rate
	}
	free := run("")
	strict := run("#pragma rskip ar(0)")
	if strict >= free {
		t.Errorf("ar(0) pragma skip %.3f should be below default %.3f", strict, free)
	}
	if strict > 0.02 {
		t.Errorf("ar(0) pragma still skipped %.1f%% of noisy elements", 100*strict)
	}
	_ = body
}

// TestPragmaOverrideRecordedInLoopInfo checks the metadata plumbed from
// source to the run-time system.
func TestPragmaOverrideRecordedInLoopInfo(t *testing.T) {
	src := `
void kernel(float a[], float out[], int n) {
	#pragma rskip ar(0.35)
	for (int i = 0; i < n; i = i + 1) {
		float s = 0.0;
		for (int j = 0; j < 4; j = j + 1) { s = s + a[i + j]; }
		out[i] = s;
	}
}`
	mod, err := lower.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	rsk, err := transform.ApplyRSkip(mod, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	li := rsk.Loops[0]
	if !li.HasAROverride || li.AROverride != 0.35 {
		t.Fatalf("override not recorded: %+v", li)
	}
	mgr := NewManager(rsk, DefaultConfig(0.2))
	if got := li.AR(mgr.cfg.AR); got != 0.35 {
		t.Errorf("AR = %g, want 0.35", got)
	}
	li.HasAROverride = false
	if got := li.AR(mgr.cfg.AR); got != 0.2 {
		t.Errorf("AR without override = %g, want config AR", got)
	}
}
