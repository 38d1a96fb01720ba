package machine

import (
	"errors"
	"slices"
	"testing"

	"rskip/internal/ir"
)

// stagedSrc has two independent loop regions in separate functions,
// both invoked from a kernel whose own code stays out of region —
// the shape compositional analysis decomposes.
const stagedSrc = `
void stage1(int a[], int out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		out[i] = a[i] * 3 + 1;
	}
}
void stage2(int a[], int out[], int n) {
	for (int i = 0; i < n; i = i + 1) {
		int s = 0;
		for (int j = 0; j < 3; j = j + 1) { s = s + a[i + j]; }
		out[i] = s;
	}
}
void kernel(int a[], int tmp[], int out[], int n) {
	stage1(a, tmp, n);
	stage2(tmp, out, n);
}
`

func runStagedTrace(t *testing.T, trace *RegionTrace, backend Backend) RunResult {
	t.Helper()
	mod := compile(t, stagedSrc)
	s1, s2, kfi := mod.FuncByName("stage1"), mod.FuncByName("stage2"), mod.FuncByName("kernel")
	region := map[int]map[int]bool{s1: {}, s2: {}}
	for _, fi := range []int{s1, s2} {
		for bi := range mod.Funcs[fi].Blocks {
			region[fi][bi] = true
		}
	}
	m := New(mod, Config{
		RegionBlocks: region,
		RegionTrace:  trace,
		Backend:      backend,
		MaxInstrs:    1 << 22,
		TraceFn:      -1,
	})
	n := int64(16)
	a := m.Mem.Alloc(n + 4)
	for i := int64(0); i < n+4; i++ {
		m.Mem.SetInt(a+i, 10+i)
	}
	tmp := m.Mem.Alloc(n + 4)
	out := m.Mem.Alloc(n)
	res, err := m.Run(kfi, []uint64{uint64(a), uint64(tmp), uint64(out), uint64(n)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The trace must tile the in-region index space exactly — its total is
// the run's Region counter — and attribute each stage's instructions
// to that stage's function, in execution order.
func TestRegionTraceTilesRegionCounter(t *testing.T) {
	var trace RegionTrace
	res := runStagedTrace(t, &trace, BackendReference)
	if trace.Overflowed() || trace.Err() != nil {
		t.Fatal("trace overflowed on a small run")
	}
	if trace.Total() != res.Region {
		t.Fatalf("trace total %d != region counter %d", trace.Total(), res.Region)
	}
	if res.Region == 0 {
		t.Fatal("no in-region instructions recorded")
	}
	mod := compile(t, stagedSrc)
	s1, s2 := mod.FuncByName("stage1"), mod.FuncByName("stage2")
	perOwner := map[int]uint64{}
	perClass := [NumOpClasses]uint64{}
	lastOwner := -1
	switches := 0
	for _, sp := range trace.Spans() {
		if sp.N == 0 {
			t.Fatal("empty span")
		}
		if sp.Owner != s1 && sp.Owner != s2 {
			t.Fatalf("span attributed to function %d, want stage1=%d or stage2=%d", sp.Owner, s1, s2)
		}
		perOwner[sp.Owner] += sp.N
		perClass[sp.Class] += sp.N
		if sp.Owner != lastOwner {
			switches++
			lastOwner = sp.Owner
		}
	}
	if perOwner[s1] == 0 || perOwner[s2] == 0 {
		t.Fatalf("per-owner totals %v: both stages must appear", perOwner)
	}
	// The kernel calls stage1 then stage2 once each: exactly one
	// owner transition.
	if switches != 2 {
		t.Fatalf("owner switches = %d, want 2 (stage1 then stage2)", switches)
	}
	// Loops guarantee every major class shows up.
	for _, c := range []OpClass{ClassALU, ClassMem, ClassBranch} {
		if perClass[c] == 0 {
			t.Errorf("class %v absent from trace", c)
		}
	}
}

func TestRegionTraceOverflowIsTyped(t *testing.T) {
	trace := RegionTrace{maxSpans: 2}
	runStagedTrace(t, &trace, BackendReference)
	if !trace.Overflowed() {
		t.Fatal("2-span cap did not overflow")
	}
	var oe *TraceOverflowError
	if err := trace.Err(); !errors.As(err, &oe) {
		t.Fatalf("Err() = %v, want *TraceOverflowError", err)
	} else if oe.Cap != 2 {
		t.Fatalf("overflow cap = %d, want 2", oe.Cap)
	}
}

// The compiled backend records the same layout as the reference
// interpreter, on a run whose counters are equal too.
func TestRegionTraceCompiledMatchesReference(t *testing.T) {
	var ref, comp RegionTrace
	rr := runStagedTrace(t, &ref, BackendReference)
	cr := runStagedTrace(t, &comp, BackendCompiled)
	if rr != cr {
		t.Fatalf("traced runs differ:\n  reference %+v\n  compiled  %+v", rr, cr)
	}
	if ref.Total() == 0 || comp.Total() != ref.Total() {
		t.Fatalf("trace totals: compiled %d, reference %d", comp.Total(), ref.Total())
	}
	if !slices.Equal(comp.Spans(), ref.Spans()) {
		t.Fatalf("compiled spans %v != reference spans %v", comp.Spans(), ref.Spans())
	}
}

func TestClassOfTaxonomy(t *testing.T) {
	want := map[ir.Op]OpClass{
		ir.OpAdd:         ClassALU,
		ir.OpConstInt:    ClassALU,
		ir.OpEq:          ClassALU,
		ir.OpFMul:        ClassFloat,
		ir.OpSqrt:        ClassFloat,
		ir.OpIToF:        ClassFloat,
		ir.OpLoad:        ClassMem,
		ir.OpStore:       ClassMem,
		ir.OpAlloca:      ClassMem,
		ir.OpCondBr:      ClassBranch,
		ir.OpRet:         ClassBranch,
		ir.OpCall:        ClassCall,
		ir.OpCheck2:      ClassCheck,
		ir.OpVote3:       ClassCheck,
		ir.OpRTObserve:   ClassRuntime,
		ir.OpRTLoopEnter: ClassRuntime,
	}
	for op, cls := range want {
		if got := ClassOf(op); got != cls {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, cls)
		}
	}
	for op := ir.Op(0); op < ir.Op(ir.NumOps); op++ {
		if c := ClassOf(op); c >= NumOpClasses {
			t.Errorf("ClassOf(%v) = %d out of range", op, c)
		}
	}
}

// FuncFingerprint isolates one function; RegionFingerprint covers the
// call closure. Editing a helper must change its caller's region
// fingerprint but not an unrelated function's.
func TestRegionFingerprintClosure(t *testing.T) {
	src := `
int helper(int x) { return x * 3; }
void stage1(int a[], int out[], int n) {
	for (int i = 0; i < n; i = i + 1) { out[i] = helper(a[i]); }
}
void stage2(int a[], int out[], int n) {
	for (int i = 0; i < n; i = i + 1) { out[i] = a[i] + 7; }
}
void kernel(int a[], int tmp[], int out[], int n) {
	stage1(a, tmp, n);
	stage2(tmp, out, n);
}
`
	mod := compile(t, src)
	hfi, s1, s2 := mod.FuncByName("helper"), mod.FuncByName("stage1"), mod.FuncByName("stage2")
	base := CompileCode(mod)

	clone := mod.Clone()
	// Edit helper's body only.
	edited := false
	for bi := range clone.Funcs[hfi].Blocks {
		for k := range clone.Funcs[hfi].Blocks[bi].Instrs {
			in := &clone.Funcs[hfi].Blocks[bi].Instrs[k]
			if in.Op == ir.OpConstInt {
				in.Imm++
				edited = true
			}
		}
	}
	if !edited {
		t.Fatal("no editable constant in helper")
	}
	ec := CompileCode(clone)

	if base.FuncFingerprint(s1) != ec.FuncFingerprint(s1) {
		t.Error("stage1's own fingerprint changed on a helper edit")
	}
	if base.FuncFingerprint(hfi) == ec.FuncFingerprint(hfi) {
		t.Error("helper edit did not change helper's fingerprint")
	}
	if base.RegionFingerprint(s1) == ec.RegionFingerprint(s1) {
		t.Error("stage1's region fingerprint must cover its callee helper")
	}
	if base.RegionFingerprint(s2) != ec.RegionFingerprint(s2) {
		t.Error("stage2's region fingerprint changed though its closure is untouched")
	}
}

// Populations keyed by owner and by class each tile the in-region index
// space: every index lies in exactly one population of each split, and
// Pick enumerates a population's indexes in order.
func TestPopulationsTileTrace(t *testing.T) {
	tr := &RegionTrace{}
	layout := []RegionSpan{
		{0, ClassALU, 3}, {0, ClassMem, 2}, {1, ClassALU, 4},
		{0, ClassALU, 1}, {2, ClassBranch, 2}, {1, ClassMem, 3},
	}
	var owners, classes []int
	for _, sp := range layout {
		for i := uint64(0); i < sp.N; i++ {
			tr.note(sp.Owner, sp.Class)
			owners = append(owners, sp.Owner)
			classes = append(classes, int(sp.Class))
		}
	}
	for name, c := range map[string]struct {
		pops []Population
		key  []int
	}{"owner": {tr.ByOwner(), owners}, "class": {tr.ByClass(), classes}} {
		var sum uint64
		for i := range c.pops {
			p := &c.pops[i]
			if i > 0 && c.pops[i-1].Key >= p.Key {
				t.Errorf("%s populations not ordered by key", name)
			}
			var j uint64
			for g, k := range c.key {
				if in := p.Contains(uint64(g)); in != (k == p.Key) {
					t.Errorf("%s %d: Contains(%d) = %v", name, p.Key, g, in)
				}
				if k == p.Key {
					if got := p.Pick(j); got != uint64(g) {
						t.Errorf("%s %d: Pick(%d) = %d, want %d", name, p.Key, j, got, g)
					}
					j++
				}
			}
			if j != p.Count {
				t.Errorf("%s %d: Count %d, want %d", name, p.Key, p.Count, j)
			}
			sum += p.Count
		}
		if sum != tr.Total() {
			t.Errorf("%s populations sum to %d, trace holds %d", name, sum, tr.Total())
		}
	}
}
