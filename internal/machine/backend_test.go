package machine

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rskip/internal/ir"
)

// TestParseBackend pins the wire/CLI spellings: the empty string and
// "compiled" select the default engine, "reference" the spec
// interpreter, and every other name — including the retired "fast" and
// "auto" — is a typed *UnknownBackendError.
func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendCompiled, true},
		{"compiled", BackendCompiled, true},
		{"reference", BackendReference, true},
		{"fast", 0, false},
		{"auto", 0, false},
		{"native", 0, false},
		{"Compiled", 0, false},
		{" reference", 0, false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if !c.ok {
			var ue *UnknownBackendError
			if !errors.As(err, &ue) || ue.Name != c.in {
				t.Errorf("ParseBackend(%q) err = %v, want *UnknownBackendError naming it", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBackend(%q) err = %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBackend(%q) = %v, want %v", c.in, got, c.want)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("round trip: %v.String() = %q, want %q", got, got.String(), c.in)
		}
	}
	if Backend(0) != BackendCompiled {
		t.Error("the zero Backend must be BackendCompiled")
	}
}

// TestFlipBitBit31Wrap pins the multi-bit adjacency wrap: a width-2
// upset at bit 31 strikes architectural bits {31, 0}, never bit 32 of
// the host word.
func TestFlipBitBit31Wrap(t *testing.T) {
	f := &frame{
		fn:   &ir.Func{NumRegs: 1, RegType: []ir.Type{ir.Int}},
		regs: []uint64{0},
	}
	m := &Machine{fault: faultState{plan: FaultPlan{
		Kind: FaultMultiBit, Bit: 31, Width: 2,
	}}}
	m.flipBit(f, 0)
	if want := uint64(1<<31 | 1<<0); f.regs[0] != want {
		t.Errorf("int width-2 at bit 31: got %#x, want %#x (wrap to bit 0)", f.regs[0], want)
	}

	// Float registers apply the same wrap before the FP32→FP64 bit
	// mapping: bit 31 → sign (63), wrapped bit 0 → mantissa (29).
	f.fn.RegType[0] = ir.Float
	f.regs[0] = f2b(1.5)
	m.flipBit(f, 0)
	if want := f2b(1.5) ^ (1<<63 | 1<<29); f.regs[0] != want {
		t.Errorf("float width-2 at bit 31: got %#x, want %#x", f.regs[0], want)
	}

	// Width clamps to the 32-bit architectural register: an absurd
	// width flips exactly the low 32 bits, once each.
	f.fn.RegType[0] = ir.Int
	f.regs[0] = 0
	m.fault.plan.Width = 40
	m.flipBit(f, 0)
	if want := uint64(0xFFFFFFFF); f.regs[0] != want {
		t.Errorf("clamped width: got %#x, want %#x", f.regs[0], want)
	}
}

// runFaultOn is runWithFault with an explicit execution backend.
func runFaultOn(t *testing.T, mod *ir.Module, fi int, plan *FaultPlan, be Backend) (RunResult, []int64, error) {
	t.Helper()
	region := map[int]bool{}
	for bi := range mod.Funcs[fi].Blocks {
		region[bi] = true
	}
	m := New(mod, Config{
		RegionBlocks: map[int]map[int]bool{fi: region},
		Fault:        plan,
		MaxInstrs:    1 << 22,
		TraceFn:      -1,
		Backend:      be,
	})
	n := int64(16)
	a := m.Mem.Alloc(n + 4)
	for i := int64(0); i < n+4; i++ {
		m.Mem.SetInt(a+i, 100+i)
	}
	out := m.Mem.Alloc(n)
	res, err := m.Run(fi, []uint64{uint64(a), uint64(out), uint64(n)})
	var vals []int64
	if err == nil {
		vals = m.Mem.ReadInts(out, int(n))
	}
	return res, vals, err
}

var allBackends = []Backend{BackendCompiled, BackendReference}

// TestMultiBitWrapBackendsAgree injects width-2 upsets at bit 31 (the
// wrap case) across a sweep of targets and demands bit-identical
// outcomes from both execution backends.
func TestMultiBitWrapBackendsAgree(t *testing.T) {
	mod, fi := faultHarness(t)
	for target := uint64(0); target < 48; target += 5 {
		plan := &FaultPlan{Kind: FaultMultiBit, Target: target, Bit: 31, Width: 2}
		ref, refVals, refErr := runFaultOn(t, mod, fi, plan, BackendReference)
		res, vals, err := runFaultOn(t, mod, fi, plan, BackendCompiled)
		if (err == nil) != (refErr == nil) ||
			(err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("target %d: compiled err %v, reference err %v", target, err, refErr)
		}
		if res != ref {
			t.Fatalf("target %d: compiled result %+v, reference %+v", target, res, ref)
		}
		for i := range refVals {
			if vals[i] != refVals[i] {
				t.Fatalf("target %d: compiled out[%d] = %d, reference %d",
					target, i, vals[i], refVals[i])
			}
		}
	}
}

// TestSkipFinalTerminatorWrapsToBlockZero pins the semantics of
// skipping the terminator of a function's final block: control falls
// through to (block+1) mod len(blocks) — block 0 — so the body runs a
// second time and the Ret executes on the second pass. Both backends
// must implement the wrap identically.
func TestSkipFinalTerminatorWrapsToBlockZero(t *testing.T) {
	b := ir.NewBuilder("k", nil, ir.Int)
	c := b.ConstInt(42)
	body := b.NewBlock("body")
	b.Br(body)
	b.SetBlock(body)
	b.Ret(c)
	mod := &ir.Module{Name: "t", Funcs: []*ir.Func{b.F}}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}

	region := map[int]bool{0: true, 1: true}
	run := func(plan *FaultPlan, be Backend) (RunResult, bool, error) {
		m := New(mod, Config{
			RegionBlocks: map[int]map[int]bool{0: region},
			Fault:        plan,
			MaxInstrs:    1 << 16,
			TraceFn:      -1,
			Backend:      be,
		})
		res, err := m.Run(0, nil)
		return res, m.FaultFired(), err
	}

	clean, _, err := run(nil, BackendCompiled)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic region order: ConstInt(0), Br(1), Ret(2). Skip the Ret.
	plan := &FaultPlan{Kind: FaultSkip, Target: 2}
	ref, refFired, refErr := run(plan, BackendReference)
	if refErr != nil {
		t.Fatalf("reference: %v", refErr)
	}
	if !refFired {
		t.Fatal("fault did not fire on the final terminator")
	}
	if ref.Ret != 42 {
		t.Fatalf("ret after wrap = %d, want 42 (Ret executes on second pass)", ref.Ret)
	}
	// The wrap re-executes the whole two-block body exactly once: the
	// skipped Ret is still charged, so the dynamic count doubles.
	if ref.Instrs != 2*clean.Instrs {
		t.Fatalf("instrs after wrap = %d, want %d (clean %d doubled)",
			ref.Instrs, 2*clean.Instrs, clean.Instrs)
	}
	res, fired, err := run(plan, BackendCompiled)
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	if !fired {
		t.Fatal("compiled: fault did not fire")
	}
	if res != ref {
		t.Fatalf("compiled: result %+v, reference %+v", res, ref)
	}
}

// TestBackendsAgreeCleanRun is the cheap always-on slice of the
// golden two-way sweep: one clean kernel run per backend must agree
// exactly (the full fault-probe sweep lives in internal/bench and is
// skipped under -short).
func TestBackendsAgreeCleanRun(t *testing.T) {
	mod, fi := faultHarness(t)
	ref, refVals, refErr := runFaultOn(t, mod, fi, nil, BackendReference)
	if refErr != nil {
		t.Fatal(refErr)
	}
	res, vals, err := runFaultOn(t, mod, fi, nil, BackendCompiled)
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	if res != ref {
		t.Fatalf("compiled: result %+v, reference %+v", res, ref)
	}
	for i := range refVals {
		if vals[i] != refVals[i] {
			t.Fatalf("compiled: out[%d] = %d, reference %d", i, vals[i], refVals[i])
		}
	}
}

// TestResetTogglesUntimed pins Config.Untimed across Reset on every
// backend: an untimed run on a machine a timed run left dirty reports
// Cycles == 0 and otherwise the timed result, and a timed run after it
// (whose init skipped nothing) reproduces the first run exactly. It
// then pins the single clear of a resumed replica (ResetForResume):
// replicas from zero and from a snapshot, and a timed run, alternate
// on one machine and each equals a fresh machine's run in every field,
// the whole arena included.
func TestResetTogglesUntimed(t *testing.T) {
	mod, fi := faultHarness(t)
	for _, be := range allBackends {
		cfg := Config{MaxInstrs: 1 << 22, TraceFn: -1, Backend: be}
		m := New(mod, cfg)
		run := func(untimed bool) RunResult {
			c := cfg
			c.Untimed = untimed
			m.Reset(c)
			n := int64(16)
			a := m.Mem.Alloc(n + 4)
			for i := int64(0); i < n+4; i++ {
				m.Mem.SetInt(a+i, 100+i)
			}
			res, err := m.Run(fi, []uint64{uint64(a), uint64(m.Mem.Alloc(n)), uint64(n)})
			if err != nil {
				t.Fatalf("backend %v: %v", be, err)
			}
			return res
		}
		timed := run(false)
		if timed.Cycles == 0 {
			t.Fatalf("backend %v: timed run reported 0 cycles", be)
		}
		untimed := run(true)
		want := timed
		want.Cycles = 0
		if untimed != want {
			t.Errorf("backend %v: untimed %+v, want %+v", be, untimed, want)
		}
		if again := run(false); again != timed {
			t.Errorf("backend %v: timed after untimed %+v, want %+v", be, again, timed)
		}
		m.Release()
	}
	lazyClearSequence(t)
}

// lazyClearSequence runs, on one machine per backend: a from-zero
// replica that dirties the high stack and a sparse page before it
// segfaults, a replica resumed mid-run that traps soon after the
// snapshot (so a word the restore failed to clear stays visible), a
// from-zero replica and a timed run.
func lazyClearSequence(t *testing.T) {
	mod, fi, cfg := snapHarness(t)
	for _, be := range allBackends {
		cfg := cfg
		cfg.Backend = be
		c := NewCapture(4)
		clean := captureRun(t, mod, fi, cfg, be, c)
		untimed := cfg
		untimed.Untimed, untimed.MaxInstrs = true, 2*clean.Instrs

		type replica struct {
			name string
			cfg  Config
			snap *Snapshot
		}
		run := func(m *Machine, r replica) (RunResult, error) {
			if r.snap != nil {
				m.ResetForResume(r.cfg)
				snapSetup(m)
				return m.Resume(r.snap)
			}
			m.Reset(r.cfg)
			return m.Run(fi, snapSetup(m))
		}
		fresh := func(r replica) (*Machine, RunResult, error) {
			m := New(mod, r.cfg)
			res, err := run(m, r)
			return m, res, err
		}

		// A strike late in the run that sends an address past the
		// mapped space: the run has written stack arrays and sparse
		// pages by then.
		var segv replica
		for tgt := clean.Region * 3 / 4; tgt < clean.Region && segv.name == ""; tgt++ {
			r := replica{name: "segfault from zero", cfg: untimed}
			r.cfg.Fault = &FaultPlan{Kind: FaultResultBit, Target: tgt, Bit: 31}
			fm, _, err := fresh(r)
			var se *SegfaultError
			if errors.As(err, &se) && fm.Mem.pages != nil && fm.Mem.dirtyHiStart < int64(len(fm.Mem.words)) {
				segv = r
			}
			fm.Release()
		}
		if segv.name == "" {
			t.Fatalf("backend %v: no late strike segfaults", be)
		}
		snap := c.Latest(clean.Region/4, untimed.MaxInstrs)
		resumed := replica{name: "resumed", cfg: untimed, snap: snap}
		resumed.cfg.Fault = &FaultPlan{Kind: FaultOpcode, Target: snap.Region() + 3, Bit: 7}
		timed := cfg
		timed.MaxInstrs = untimed.MaxInstrs

		m := New(mod, untimed)
		for _, r := range []replica{segv, resumed, {name: "from zero", cfg: untimed}, {name: "timed", cfg: timed}} {
			got, gerr := run(m, r)
			fm, want, werr := fresh(r)
			label := fmt.Sprintf("backend %v, %s", be, r.name)
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("%s: (%+v, %v), fresh machine (%+v, %v)", label, got, gerr, want, werr)
			}
			if m.FaultFired() != fm.FaultFired() {
				t.Errorf("%s: fault fired %v, fresh machine %v", label, m.FaultFired(), fm.FaultFired())
			}
			if !slices.Equal(m.Mem.words, fm.Mem.words) || !reflect.DeepEqual(m.Mem.pages, fm.Mem.pages) ||
				m.Mem.heapEnd != fm.Mem.heapEnd || m.Mem.stackPtr != fm.Mem.stackPtr {
				t.Errorf("%s: memory differs from a fresh machine's", label)
			}
			fm.Release()
		}
		m.Release()
	}
}
