package transform

import (
	"testing"

	"rskip/internal/analysis"
	"rskip/internal/ir"
	"rskip/internal/machine"
)

// runKernelWith reuses the transform test harness on a named module.
func outputsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOptimizePreservesSemantics(t *testing.T) {
	srcs := []string{
		kernelSrc,
		`
int helper(int x) { return x * 2 + 3; }
void kernel(int a[], int out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		int s = 0;
		for (int j = 0; j < 5; j = j + 1) {
			s = s + helper(a[i + j]) - a[i] / (j + 1);
		}
		out[i] = s;
	}
}`,
		`
void kernel(int a[], int out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		int x = 3 * 4 + 5;
		int y = x;
		int s = 0;
		for (int j = 0; j < 4; j = j + 1) { s = s + a[i + j] * y; }
		out[i] = s - x;
	}
}`,
	}
	for _, src := range srcs {
		mod := compile(t, src)
		golden := runKernel(t, mod, nil, 10)
		opt := mod.Clone()
		Optimize(opt)
		if err := ir.Verify(opt); err != nil {
			t.Fatalf("optimized module invalid: %v", err)
		}
		got := runKernel(t, opt, nil, 10)
		if !outputsEqual(golden, got) {
			t.Fatalf("optimization changed semantics:\n%v\n%v", golden, got)
		}
	}
}

func TestOptimizeShrinks(t *testing.T) {
	mod := compile(t, `
void kernel(int a[], int out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		int c = 2 + 3;
		int unused = c * 100;
		int s = 0;
		for (int j = 0; j < 4; j = j + 1) { s = s + a[i + j] * c; }
		out[i] = s;
	}
}`)
	before := staticInstrCount(mod)
	Optimize(mod)
	after := staticInstrCount(mod)
	if after >= before {
		t.Errorf("optimizer did not shrink: %d -> %d", before, after)
	}
	// The dead `unused` computation must be gone.
	m := machine.New(mod, machine.Config{TraceFn: -1})
	a := m.Mem.Alloc(16)
	out := m.Mem.Alloc(8)
	res, err := m.Run(mod.FuncByName("kernel"), []uint64{uint64(a), uint64(out), 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs == 0 {
		t.Fatal("no execution")
	}
}

func TestOptimizeFoldsConstants(t *testing.T) {
	mod := compile(t, `int f() { return (2 + 3) * (4 - 1); }`)
	Optimize(mod)
	// The function should collapse to const + ret (plus possibly a
	// leftover move).
	n := staticInstrCount(mod)
	if n > 3 {
		t.Errorf("constant expression left %d instructions", n)
	}
	m := machine.New(mod, machine.Config{TraceFn: -1})
	res, err := m.Run(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Ret) != 15 {
		t.Errorf("folded result = %d, want 15", int64(res.Ret))
	}
}

func TestOptimizeThenProtectStillWorks(t *testing.T) {
	// The intended pipeline: optimize first, protect second.
	mod := compile(t, kernelSrc)
	golden := runKernel(t, mod, nil, 12)
	Optimize(mod)
	tmr := mod.Clone()
	ApplySWIFTR(tmr)
	if err := ir.Verify(tmr); err != nil {
		t.Fatal(err)
	}
	if !outputsEqual(golden, runKernel(t, tmr, nil, 12)) {
		t.Fatal("optimize+SWIFT-R changed semantics")
	}
	// And through the full RSkip transform.
	rsk, err := ApplyRSkip(mod, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rsk.Loops) == 0 {
		t.Fatal("optimization destroyed the candidate loop")
	}
}

func TestOptimizeKeepsCopySemantics(t *testing.T) {
	// x = a; a = a + 1; use x — propagation must not substitute the
	// updated a for x.
	mod := compile(t, `
int f(int a) {
	int x = a;
	a = a + 1;
	return x * 10 + a;
}`)
	Optimize(mod)
	m := machine.New(mod, machine.Config{TraceFn: -1})
	res, err := m.Run(0, []uint64{5})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Ret) != 5*10+6 {
		t.Errorf("got %d, want 56", int64(res.Ret))
	}
}

// staticInstrCount reports the module's static instruction count, the
// quantity the optimizer shrinks.
func staticInstrCount(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for bi := range f.Blocks {
			n += len(f.Blocks[bi].Instrs)
		}
	}
	return n
}
