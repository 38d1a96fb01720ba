package machine

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"rskip/internal/ir"
	"rskip/internal/lower"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := lower.Compile("test", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return mod
}

func TestMemorySegments(t *testing.T) {
	m := NewMemory()
	a := m.Alloc(16)
	b := m.Alloc(16)
	if a == b {
		t.Fatal("allocations overlap")
	}
	m.SetInt(a, 42)
	if m.GetInt(a) != 42 {
		t.Error("round trip failed")
	}
	m.SetFloat(b, 3.5)
	if m.GetFloat(b) != 3.5 {
		t.Error("float round trip failed")
	}
	// Negative and beyond-mapped addresses fault.
	if _, err := m.LoadWord(-1); err == nil {
		t.Error("negative load should fault")
	}
	if err := m.StoreWord(MappedLimit, 1); err == nil {
		t.Error("store past MappedLimit should fault")
	}
	var se *SegfaultError
	_, err := m.LoadWord(MappedLimit + 5)
	if !errors.As(err, &se) {
		t.Errorf("want SegfaultError, got %v", err)
	}
}

// TestMemorySparsePages: any mapped word reads zero until stored to,
// a store maps only its own page — across a page boundary, and far
// from the segments — and a faulting access maps none. A memory holding
// a stray page near MappedLimit restores to exactly a snapshot's
// pages: restore leaves nothing of its previous contents behind.
func TestMemorySparsePages(t *testing.T) {
	m := NewMemory()
	for _, addr := range []int64{pageSize - 1, pageSize, 1<<20 + 37, MappedLimit - 1} {
		w, err := m.LoadWord(addr)
		if err != nil || w != 0 {
			t.Fatalf("unwritten read at %d = %d, %v; want 0, nil", addr, w, err)
		}
		if err := m.StoreWord(addr, uint64(addr)); err != nil {
			t.Fatalf("store at %d: %v", addr, err)
		}
		if w, _ := m.LoadWord(addr); w != uint64(addr) {
			t.Errorf("readback at %d = %d, want %d", addr, w, addr)
		}
	}
	// A neighboring page stays zero.
	if w, _ := m.LoadWord(1<<20 + 37 + pageSize); w != 0 {
		t.Errorf("neighbor page = %d, want 0", w)
	}
	if err := m.StoreWord(-1, 1); err == nil {
		t.Error("store to a negative address should fault")
	}
	if want := []int32{0, 1, (1<<20 + 37) / pageSize, int32((MappedLimit - 1) / pageSize)}; !slices.Equal(m.used, want) {
		t.Errorf("pages in use %v, want %v", m.used, want)
	}

	src := NewMemory()
	src.SetInt(src.Alloc(3)+2, 5)
	st := src.snapshot()
	m.restore(&st)
	if len(m.used) != len(st.pages) || !m.sameAs(&st) {
		t.Errorf("restored memory holds pages %v, want the snapshot's %d equal ones", m.used, len(st.pages))
	}
	if w, _ := m.LoadWord(MappedLimit - 1); w != 0 {
		t.Errorf("stray word after restore = %d, want 0", w)
	}
}

func TestStackAllocaDiscipline(t *testing.T) {
	mod := compile(t, `
int leaf(int x) {
	int t[8];
	t[0] = x * 2;
	return t[0];
}
int f(int x) {
	int t[8];
	t[0] = x;
	int r = leaf(x);
	return t[0] + r;
}`)
	m := New(mod, Config{TraceFn: -1})
	res, err := m.Run(mod.FuncByName("f"), []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Ret) != 7+14 {
		t.Errorf("got %d, want 21", int64(res.Ret))
	}
	if m.Mem.StackMark() != int64(1<<22) {
		t.Errorf("stack not fully popped: %d", m.Mem.StackMark())
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		name, src string
		args      []uint64
	}{
		{"div by zero", `int f(int x) { return 1 / x; }`, []uint64{0}},
		{"rem by zero", `int f(int x) { return 1 % x; }`, []uint64{0}},
		{"bad conversion", `int f(float x) { return int(x); }`,
			[]uint64{math.Float64bits(math.NaN())}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			// Every engine path traps after the same charges.
			_, err := runEngines(t, compile(t, tt.src), tt.args)
			var te *TrapError
			if !errors.As(err, &te) {
				t.Errorf("want TrapError, got %v", err)
			}
		})
	}
}

func TestHangDetection(t *testing.T) {
	mod := compile(t, `int f() { while (1) { } return 0; }`)
	m := New(mod, Config{MaxInstrs: 10000, TraceFn: -1})
	_, err := m.Run(0, nil)
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("want HangError, got %v", err)
	}
}

func TestCancelBeforeRun(t *testing.T) {
	mod := compile(t, `int f() { return 1; }`)
	done := make(chan struct{})
	close(done)
	m := New(mod, Config{TraceFn: -1, Cancel: done})
	_, err := m.Run(0, nil)
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want CancelError, got %v", err)
	}
}

func TestCancelMidRun(t *testing.T) {
	mod := compile(t, `int f() { while (1) { } return 0; }`)
	done := make(chan struct{})
	m := New(mod, Config{TraceFn: -1, Cancel: done})
	go close(done)
	_, err := m.Run(0, nil)
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("want CancelError, got %v", err)
	}
	// The run stopped close to a poll boundary, not at the hang limit.
	if m.C.Dyn >= DefaultMaxInstrs {
		t.Errorf("run consumed the whole budget despite cancellation")
	}
}

func TestDeterminism(t *testing.T) {
	mod := compile(t, `
float f(float x, int n) {
	float s = 0.0;
	for (int i = 0; i < n; i = i + 1) { s = s + sqrt(x + float(i)); }
	return s;
}`)
	run := func() RunResult {
		m := New(mod, Config{TraceFn: -1})
		res, err := m.Run(0, []uint64{math.Float64bits(2.0), 100})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Ret != b.Ret || a.Instrs != b.Instrs || a.Cycles != b.Cycles {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestCountersAndTiming(t *testing.T) {
	mod := compile(t, `
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) { s = s + i; }
	return s;
}`)
	small := New(mod, Config{TraceFn: -1})
	rs, _ := small.Run(0, []uint64{10})
	big := New(mod, Config{TraceFn: -1})
	rb, _ := big.Run(0, []uint64{100})
	if rb.Instrs <= rs.Instrs || rb.Cycles <= rs.Cycles {
		t.Errorf("counters not monotone in work: %+v vs %+v", rs, rb)
	}
	if rs.IPC() <= 0 || rs.IPC() > float64(4) {
		t.Errorf("IPC out of range: %f", rs.IPC())
	}
	if rb.Counter.OpCount(ir.OpAdd) == 0 {
		t.Error("per-op counters empty")
	}
}

func TestIssueWidthMatters(t *testing.T) {
	mod := compile(t, `
int f(int n) {
	int a = 0;
	int b = 0;
	int c = 0;
	int d = 0;
	for (int i = 0; i < n; i = i + 1) {
		a = a + 1;
		b = b + 2;
		c = c + 3;
		d = d + 4;
	}
	return a + b + c + d;
}`)
	wide := New(mod, Config{IssueWidth: 8, TraceFn: -1})
	rw, _ := wide.Run(0, []uint64{1000})
	narrow := New(mod, Config{IssueWidth: 1, TraceFn: -1})
	rn, _ := narrow.Run(0, []uint64{1000})
	if rn.Cycles <= rw.Cycles {
		t.Errorf("narrower issue must be slower: width1=%d width8=%d", rn.Cycles, rw.Cycles)
	}
	if rw.Ret != rn.Ret {
		t.Error("issue width changed semantics")
	}
}

func TestChargeAccountsInstructions(t *testing.T) {
	mod := compile(t, `int f() { return 0; }`)
	m := New(mod, Config{TraceFn: -1})
	before := m.C.Dyn
	m.Charge(Cost{IntOps: 3, FpOps: 2, MemOps: 1, Branches: 1})
	if m.C.Dyn != before+7 {
		t.Errorf("Charge added %d, want 7", m.C.Dyn-before)
	}
	if m.C.Runtime != 7 {
		t.Errorf("Runtime counter = %d, want 7", m.C.Runtime)
	}
}

func TestCallTracer(t *testing.T) {
	mod := compile(t, `
float g(float x, float y) { return x * y; }
float f(float x) { return g(x, 2.0) + g(x, 3.0); }`)
	var traced [][]uint64
	var rets []uint64
	m := New(mod, Config{
		TraceFn: mod.FuncByName("g"),
		CallTracer: func(args []uint64, ret uint64) {
			traced = append(traced, append([]uint64(nil), args...))
			rets = append(rets, ret)
		},
	})
	_, err := m.Run(mod.FuncByName("f"), []uint64{math.Float64bits(5.0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != 2 {
		t.Fatalf("traced %d calls, want 2", len(traced))
	}
	if math.Float64frombits(rets[0]) != 10 || math.Float64frombits(rets[1]) != 15 {
		t.Errorf("traced returns: %g, %g", math.Float64frombits(rets[0]), math.Float64frombits(rets[1]))
	}
}

func TestRegionCounting(t *testing.T) {
	mod := compile(t, `
int helper(int x) { return x * 2; }
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i = i + 1) { s = s + helper(i); }
	return s;
}`)
	// Mark the loop blocks as region; the helper inherits via its call
	// site.
	all := map[int]bool{}
	fi := mod.FuncByName("f")
	for bi := range mod.Funcs[fi].Blocks {
		all[bi] = true
	}
	m := New(mod, Config{RegionBlocks: map[int]map[int]bool{fi: all}, TraceFn: -1})
	res, err := m.Run(fi, []uint64{10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Region == 0 {
		t.Fatal("no region instructions counted")
	}
	// Without region marks, zero.
	m2 := New(mod, Config{TraceFn: -1})
	res2, _ := m2.Run(fi, []uint64{10})
	if res2.Region != 0 {
		t.Errorf("unmarked run counted %d region instrs", res2.Region)
	}
}

func TestPipelineProperties(t *testing.T) {
	// Issue cycles are bounded below by operand readiness and the
	// completion cycle includes the latency.
	check := func(ready uint16, lat uint8) bool {
		var p pipeline
		p.init(2, false)
		done := p.issue(uint64(ready), uint64(lat))
		return done >= uint64(ready)+uint64(lat)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineLayout pins Machine.pl to a 64-byte offset on 64-bit
// hosts: timed runs' speed has followed its offset, so a field added
// before it must come with a resized pad, not shift it silently.
func TestPipelineLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pad is sized for 64-bit hosts")
	}
	var m Machine
	if off := unsafe.Offsetof(m.pl); off%64 != 0 {
		t.Fatalf("Machine.pl at offset %d, want a multiple of 64: resize the pad before it", off)
	}
}

func TestPipelineWidthLimit(t *testing.T) {
	var p pipeline
	p.init(2, false)
	// Six zero-latency ops all ready at cycle 0 need >= 3 cycles.
	var last uint64
	for i := 0; i < 6; i++ {
		last = p.issue(0, 0)
	}
	if last < 2 {
		t.Errorf("six μops at width 2 finished at cycle %d, want >= 2", last)
	}
}

func TestMemoryTypedHelpers(t *testing.T) {
	m := NewMemory()
	base := m.Alloc(8)
	m.CopyInts(base, []int64{1, -2, 3})
	got := m.ReadInts(base, 3)
	if got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Errorf("ReadInts = %v", got)
	}
	m.CopyFloats(base+4, []float64{0.5, -1.5})
	fs := m.ReadFloats(base+4, 2)
	if fs[0] != 0.5 || fs[1] != -1.5 {
		t.Errorf("ReadFloats = %v", fs)
	}
}
