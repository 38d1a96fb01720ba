package machine

import (
	"errors"
	"strings"
	"testing"

	"rskip/internal/analysis"
	"rskip/internal/ir"
	"rskip/internal/transform"
)

func TestStackOverflowFaults(t *testing.T) {
	// Recursive allocas eventually collide with the heap.
	mod := compile(t, `
int f(int depth) {
	int t[512];
	t[0] = depth;
	if (depth == 0) { return t[0]; }
	return f(depth - 1) + t[0];
}`)
	m := New(mod, Config{TraceFn: -1})
	_, err := m.Run(0, []uint64{1 << 20})
	var se *SegfaultError
	if !errors.As(err, &se) {
		t.Fatalf("want stack-collision SegfaultError, got %v", err)
	}
	if !strings.Contains(err.Error(), "stack-alloc") {
		t.Errorf("error should identify stack allocation: %v", err)
	}
}

func TestArgumentCountMismatch(t *testing.T) {
	mod := compile(t, `int f(int a, int b) { return a + b; }`)
	m := New(mod, Config{TraceFn: -1})
	if _, err := m.Run(0, []uint64{1}); err == nil {
		t.Error("wrong argument count should error")
	}
}

func TestLoadOverrideScoping(t *testing.T) {
	// The recompute load-override must apply only to the given address
	// and be restored afterwards.
	mod := compile(t, `
void kernel(float a[], float out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		float s = 0.0;
		for (int j = 0; j < 2; j = j + 1) { s = s + a[i + j]; }
		out[i] = s;
	}
}`)
	// Build the PP form to get a recompute function.
	rsk := buildPPModule(t, mod)
	m := New(rsk, Config{TraceFn: -1})
	n := int64(8)
	a := m.Mem.Alloc(n + 2)
	for i := int64(0); i < n+2; i++ {
		m.Mem.SetFloat(a+i, float64(i))
	}
	out := m.Mem.Alloc(n)
	fi := rsk.FuncByName("kernel")
	rec := &captureHooks{}
	m.cfg.Hooks = rec
	if _, err := m.Run(fi, []uint64{uint64(a), uint64(out), uint64(n)}); err != nil {
		t.Fatal(err)
	}
	li := rsk.Loops[0]
	// Recompute iteration 3 with an override placing 100 at a+3: the
	// slice sums a[3]+a[4] = 100 + 4.
	got, err := m.CallRecompute(&li, 3, rec.inv, true, a+3, f2b(100))
	if err != nil {
		t.Fatal(err)
	}
	if b2f(got) != 104 {
		t.Errorf("override recompute = %g, want 104", b2f(got))
	}
	if m.overrideActive {
		t.Error("override leaked past CallRecompute")
	}
	// Without override, normal memory is read: 3 + 4.
	got, err = m.CallRecompute(&li, 3, rec.inv, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b2f(got) != 7 {
		t.Errorf("plain recompute = %g, want 7", b2f(got))
	}
}

type captureHooks struct{ inv []uint64 }

func (c *captureHooks) LoopEnter(m *Machine, id int, inv []uint64) error {
	c.inv = append([]uint64(nil), inv...)
	return nil
}
func (c *captureHooks) Observe(m *Machine, id int, iter int64, value uint64, addr int64) error {
	return nil
}
func (c *captureHooks) LoopExit(m *Machine, id int) error { return nil }

func buildPPModule(t *testing.T, mod *ir.Module) *ir.Module {
	t.Helper()
	rsk, err := transform.ApplyRSkip(mod, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rsk.Loops) == 0 {
		t.Fatal("no PP loop")
	}
	return rsk
}
