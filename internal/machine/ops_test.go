package machine

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"rskip/internal/ir"
)

// runEngines runs mod's function 0 three ways — on the reference
// interpreter, on the compiled backend, and on the compiled backend
// with tracing on, which keeps every instruction on its careful
// per-instruction path — and fails the test unless all three return
// the same RunResult and error.
func runEngines(t *testing.T, mod *ir.Module, args []uint64) (RunResult, error) {
	t.Helper()
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"reference", Config{TraceFn: -1, Backend: BackendReference}},
		{"compiled", Config{TraceFn: -1}},
		{"careful", Config{TraceFn: -1, Trace: io.Discard, TraceLimit: 1}},
	}
	var ref RunResult
	var refErr error
	for i, c := range cfgs {
		res, err := New(mod, c.cfg).Run(0, args)
		if i == 0 {
			ref, refErr = res, err
			continue
		}
		if res != ref {
			t.Errorf("%s RunResult %+v, reference %+v", c.name, res, ref)
		}
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("%s error %v, reference %v", c.name, err, refErr)
		}
	}
	return ref, refErr
}

// evalBinop builds `func f(a, b T) T { return a <op> b }` directly in
// IR and executes it on every engine.
func evalBinop(t *testing.T, op ir.Op, typ ir.Type, a, b uint64) uint64 {
	t.Helper()
	bld := ir.NewBuilder("f", []ir.Param{{Name: "a", Type: typ}, {Name: "b", Type: typ}}, typ)
	r := bld.Binop(op, typ, 0, 1)
	bld.Ret(r)
	mod := &ir.Module{Name: "t", Funcs: []*ir.Func{bld.F}}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
	res, err := runEngines(t, mod, []uint64{a, b})
	if err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	return res.Ret
}

func evalUnop(t *testing.T, op ir.Op, in, out ir.Type, a uint64) uint64 {
	t.Helper()
	bld := ir.NewBuilder("f", []ir.Param{{Name: "a", Type: in}}, out)
	r := bld.Unop(op, out, 0)
	bld.Ret(r)
	mod := &ir.Module{Name: "t", Funcs: []*ir.Func{bld.F}}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
	res, err := runEngines(t, mod, []uint64{a})
	if err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	return res.Ret
}

func TestIntegerOps(t *testing.T) {
	i := func(v int64) uint64 { return uint64(v) }
	cases := []struct {
		op      ir.Op
		a, b, w int64
	}{
		{ir.OpAdd, 7, -3, 4},
		{ir.OpSub, 7, 10, -3},
		{ir.OpMul, -4, 6, -24},
		{ir.OpDiv, -13, 4, -3},
		{ir.OpRem, -13, 4, -1},
		{ir.OpAnd, 0b1100, 0b1010, 0b1000},
		{ir.OpOr, 0b1100, 0b1010, 0b1110},
		{ir.OpXor, 0b1100, 0b1010, 0b0110},
		{ir.OpShl, 3, 4, 48},
		{ir.OpShr, 48, 4, 3},
		{ir.OpEq, 5, 5, 1},
		{ir.OpNe, 5, 5, 0},
		{ir.OpLt, -2, 1, 1},
		{ir.OpLe, 1, 1, 1},
		{ir.OpGt, 1, 2, 0},
		{ir.OpGe, 2, 2, 1},
	}
	for _, tt := range cases {
		if got := evalBinop(t, tt.op, ir.Int, i(tt.a), i(tt.b)); got != i(tt.w) {
			t.Errorf("%v(%d, %d) = %d, want %d", tt.op, tt.a, tt.b, int64(got), tt.w)
		}
	}
	if got := evalUnop(t, ir.OpNeg, ir.Int, ir.Int, i(9)); int64(got) != -9 {
		t.Errorf("neg(9) = %d", int64(got))
	}
}

func TestFloatOps(t *testing.T) {
	f := func(v float64) uint64 { return math.Float64bits(v) }
	fv := func(b uint64) float64 { return math.Float64frombits(b) }
	cases := []struct {
		op      ir.Op
		a, b, w float64
	}{
		{ir.OpFAdd, 1.5, 2.25, 3.75},
		{ir.OpFSub, 1.5, 2.0, -0.5},
		{ir.OpFMul, -2, 3.5, -7},
		{ir.OpFDiv, 7, 2, 3.5},
		{ir.OpPow, 2, 10, 1024},
		{ir.OpFMin, 2, -1, -1},
		{ir.OpFMax, 2, -1, 2},
	}
	for _, tt := range cases {
		if got := fv(evalBinop(t, tt.op, ir.Float, f(tt.a), f(tt.b))); got != tt.w {
			t.Errorf("%v(%g, %g) = %g, want %g", tt.op, tt.a, tt.b, got, tt.w)
		}
	}
	cmp := []struct {
		op   ir.Op
		a, b float64
		w    uint64
	}{
		{ir.OpFEq, 1, 1, 1},
		{ir.OpFNe, 1, 2, 1},
		{ir.OpFLt, 1, 2, 1},
		{ir.OpFLe, 2, 2, 1},
		{ir.OpFGt, 1, 2, 0},
		{ir.OpFGe, 2, 3, 0},
	}
	for _, tt := range cmp {
		// Comparisons produce Int; evalBinop declares the result type
		// as the operand type, so build by hand.
		bld := ir.NewBuilder("f", []ir.Param{{Name: "a", Type: ir.Float}, {Name: "b", Type: ir.Float}}, ir.Int)
		r := bld.Binop(tt.op, ir.Int, 0, 1)
		bld.Ret(r)
		mod := &ir.Module{Name: "t", Funcs: []*ir.Func{bld.F}}
		res, err := runEngines(t, mod, []uint64{f(tt.a), f(tt.b)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != tt.w {
			t.Errorf("%v(%g, %g) = %d, want %d", tt.op, tt.a, tt.b, res.Ret, tt.w)
		}
	}
	unary := []struct {
		op   ir.Op
		a, w float64
	}{
		{ir.OpFNeg, 2.5, -2.5},
		{ir.OpSqrt, 16, 4},
		{ir.OpFAbs, -3.25, 3.25},
		{ir.OpFloor, 2.9, 2},
		{ir.OpExp, 0, 1},
		{ir.OpLog, 1, 0},
	}
	for _, tt := range unary {
		if got := fv(evalUnop(t, tt.op, ir.Float, ir.Float, f(tt.a))); got != tt.w {
			t.Errorf("%v(%g) = %g, want %g", tt.op, tt.a, got, tt.w)
		}
	}
}

func TestConversions(t *testing.T) {
	minus7 := int64(-7)
	if got := evalUnop(t, ir.OpIToF, ir.Int, ir.Float, uint64(minus7)); math.Float64frombits(got) != -7 {
		t.Errorf("itof(-7) = %g", math.Float64frombits(got))
	}
	if got := evalUnop(t, ir.OpFToI, ir.Float, ir.Int, math.Float64bits(-7.9)); int64(got) != -7 {
		t.Errorf("ftoi(-7.9) = %d (truncation toward zero expected)", int64(got))
	}
}

func TestVote3Semantics(t *testing.T) {
	build := func() *ir.Module {
		bld := ir.NewBuilder("f", []ir.Param{
			{Name: "a", Type: ir.Int}, {Name: "b", Type: ir.Int}, {Name: "c", Type: ir.Int},
		}, ir.Int)
		dst := bld.F.NewReg(ir.Int)
		bld.Raw(ir.Instr{Op: ir.OpVote3, Dst: dst, Args: []ir.Reg{0, 1, 2}})
		bld.Ret(dst)
		return &ir.Module{Name: "t", Funcs: []*ir.Func{bld.F}}
	}
	mod := build()
	run := func(a, b, c uint64) uint64 {
		m := New(mod, Config{TraceFn: -1})
		res, err := m.Run(0, []uint64{a, b, c})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ret
	}
	if run(5, 5, 5) != 5 {
		t.Error("unanimous vote failed")
	}
	if run(9, 5, 5) != 5 {
		t.Error("corrupted master not outvoted")
	}
	if run(5, 9, 5) != 5 {
		t.Error("corrupted first shadow not outvoted")
	}
	if run(5, 5, 9) != 5 {
		t.Error("corrupted second shadow not outvoted")
	}
	// Three-way disagreement keeps the master (no majority exists).
	if run(1, 2, 3) != 1 {
		t.Error("three-way disagreement should keep the first copy")
	}
}

func TestCheck2Semantics(t *testing.T) {
	bld := ir.NewBuilder("f", []ir.Param{
		{Name: "a", Type: ir.Int}, {Name: "b", Type: ir.Int},
	}, ir.Int)
	bld.Raw(ir.Instr{Op: ir.OpCheck2, Args: []ir.Reg{0, 1}})
	bld.Ret(0)
	mod := &ir.Module{Name: "t", Funcs: []*ir.Func{bld.F}}
	m := New(mod, Config{TraceFn: -1})
	if _, err := m.Run(0, []uint64{4, 4}); err != nil {
		t.Errorf("matching check raised %v", err)
	}
	m2 := New(mod, Config{TraceFn: -1})
	if _, err := m2.Run(0, []uint64{4, 5}); err == nil {
		t.Error("mismatching check did not signal detection")
	}
}

// untimedHooks records every runtime-hook call and charges it work,
// so the hooks' cycle-model charge runs too.
type untimedHooks struct{ calls []string }

func (h *untimedHooks) LoopEnter(m *Machine, id int, inv []uint64) error {
	h.calls = append(h.calls, fmt.Sprint("enter", id, inv))
	m.Charge(Cost{IntOps: 1, FpOps: 1, MemOps: 1, Branches: 1})
	return nil
}

func (h *untimedHooks) Observe(m *Machine, id int, iter int64, value uint64, addr int64) error {
	h.calls = append(h.calls, fmt.Sprint("observe", id, iter, value, addr))
	m.Charge(Cost{IntOps: 2, MemOps: 1})
	return nil
}

func (h *untimedHooks) LoopExit(m *Machine, id int) error {
	h.calls = append(h.calls, fmt.Sprint("exit", id))
	m.Charge(Cost{Branches: 1})
	return nil
}

// TestUntimedClosuresSkipCycleModel runs every opcode, on each of its
// paths, through its compiled closure and through the reference
// engine on an untimed machine. An untimed frame has no ready half, so
// a ready-cycle access that an untimed path failed to skip panics;
// the registers of every frame, the error, the memory the op touched,
// the counters and the hook calls must equal a timed run's.
func TestUntimedClosuresSkipCycleModel(t *testing.T) {
	// Registers: r0 a heap address holding 42, r1 7, r2 3, r3 2.5,
	// r4 1.5, r5 the destination, r6 0 (a zero divisor), r7 NaN.
	regs := []uint64{0, 7, 3, f2b(2.5), f2b(1.5), 0, 0, f2b(math.NaN())}
	const dst = ir.Reg(5)
	arity := func(op ir.Op) int {
		switch op {
		case ir.OpConstInt, ir.OpConstFloat:
			return 0
		case ir.OpMov, ir.OpNeg, ir.OpFNeg, ir.OpIToF, ir.OpSqrt, ir.OpExp,
			ir.OpLog, ir.OpFAbs, ir.OpFloor:
			return 1
		case ir.OpVote3:
			return 3
		}
		return 2
	}
	type tcase struct {
		name string
		in   ir.Instr
	}
	var cases []tcase
	add := func(name string, in ir.Instr) { cases = append(cases, tcase{name, in}) }
	for op := ir.Op(1); int(op) < ir.NumOps; op++ {
		if !pureOp(op) {
			continue
		}
		args := []ir.Reg{1, 2, 3}[:arity(op)]
		add(op.String(), ir.Instr{Op: op, Dst: dst, Args: args, Imm: 11, FImm: 0.5})
		add(op.String()+"/nodst", ir.Instr{Op: op, Dst: ir.NoReg, Args: args, Imm: 11, FImm: 0.5})
	}
	for _, op := range []ir.Op{ir.OpDiv, ir.OpRem} {
		for _, d := range []ir.Reg{dst, ir.NoReg} {
			add(fmt.Sprint(op, "/ok/", d), ir.Instr{Op: op, Dst: d, Args: []ir.Reg{1, 2}})
			add(fmt.Sprint(op, "/trap/", d), ir.Instr{Op: op, Dst: d, Args: []ir.Reg{1, 6}})
		}
	}
	for _, d := range []ir.Reg{dst, ir.NoReg} {
		add(fmt.Sprint("ftoi/ok/", d), ir.Instr{Op: ir.OpFToI, Dst: d, Args: []ir.Reg{3}})
		add(fmt.Sprint("ftoi/trap/", d), ir.Instr{Op: ir.OpFToI, Dst: d, Args: []ir.Reg{7}})
		add(fmt.Sprint("load/", d), ir.Instr{Op: ir.OpLoad, Dst: d, Args: []ir.Reg{0}})
		add(fmt.Sprint("load/segfault/", d), ir.Instr{Op: ir.OpLoad, Dst: d, Args: []ir.Reg{7}})
		add(fmt.Sprint("alloca/", d), ir.Instr{Op: ir.OpAlloca, Dst: d, Imm: 4})
	}
	add("store", ir.Instr{Op: ir.OpStore, Args: []ir.Reg{0, 1}})
	add("check2/equal", ir.Instr{Op: ir.OpCheck2, Args: []ir.Reg{1, 1}})
	add("check2/detect", ir.Instr{Op: ir.OpCheck2, Args: []ir.Reg{1, 2}})
	add("br", ir.Instr{Op: ir.OpBr, Blocks: []int{1}})
	add("condbr/taken", ir.Instr{Op: ir.OpCondBr, Args: []ir.Reg{1}, Blocks: []int{1, 2}})
	add("condbr/fallthrough", ir.Instr{Op: ir.OpCondBr, Args: []ir.Reg{6}, Blocks: []int{1, 2}})
	add("call", ir.Instr{Op: ir.OpCall, Dst: dst, Args: []ir.Reg{1, 2}, Callee: 1})
	add("ret", ir.Instr{Op: ir.OpRet, Args: []ir.Reg{1}})
	add("ret/void", ir.Instr{Op: ir.OpRet})
	add("rt.enter", ir.Instr{Op: ir.OpRTLoopEnter, Imm: 3, Args: []ir.Reg{1, 2}})
	add("rt.observe", ir.Instr{Op: ir.OpRTObserve, Imm: 3, Args: []ir.Reg{1, 2, 0}})
	add("rt.exit", ir.Instr{Op: ir.OpRTLoopExit, Imm: 3})
	add("illegal", ir.Instr{Op: ir.OpInvalid, Args: []ir.Reg{1}})

	type outcome struct {
		regs    [][]uint64
		err     string
		lastRet uint64
		c       Counters
		word    uint64
		stack   int64
		hooks   []string
	}
	for _, tc := range cases {
		// f runs the instruction in block 0; blocks 1 and 2 are branch
		// targets. g, the callee, returns its first argument, so a call
		// is followed by a return into the caller's destination.
		ret := ir.Instr{Op: ir.OpRet, Args: []ir.Reg{1}}
		f := &ir.Func{Name: "f", NumRegs: len(regs), Blocks: []ir.Block{
			{Instrs: []ir.Instr{tc.in, ret}}, {Instrs: []ir.Instr{ret}}, {Instrs: []ir.Instr{ret}},
		}}
		for range regs {
			f.Params = append(f.Params, ir.Param{Type: ir.Int})
		}
		g := &ir.Func{Name: "g", NumRegs: 2, Params: []ir.Param{{Type: ir.Int}, {Type: ir.Int}},
			Blocks: []ir.Block{{Instrs: []ir.Instr{{Op: ir.OpRet, Args: []ir.Reg{0}}}}}}
		mod := &ir.Module{Name: "t", Funcs: []*ir.Func{f, g}}
		steps := 1
		if tc.in.Op == ir.OpCall {
			steps = 2
		}
		for _, be := range allBackends {
			run := func(untimed bool) (o outcome) {
				label := fmt.Sprintf("%s on %v, untimed %v", tc.name, be, untimed)
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic: %v", label, r)
					}
				}()
				h := &untimedHooks{}
				m := New(mod, Config{TraceFn: -1, Backend: be, Untimed: untimed, Hooks: h})
				defer m.Release()
				m.Mem.SetInt(m.Mem.Alloc(1), 42)
				if err := m.pushFrame(0, regs, ir.NoReg); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < steps && o.err == ""; i++ {
					top := &m.fr[len(m.fr)-1]
					if untimed && len(top.ready) != 0 {
						t.Errorf("%s: an untimed frame of %s holds %d ready cycles", label, top.fn.Name, len(top.ready))
					}
					var err error
					if be == BackendCompiled {
						op := m.ccode.fns[top.fi].blocks[top.block].ops[top.ip]
						top.ip++
						err = op(m, top)
					} else {
						err = m.step()
					}
					if err != nil {
						o.err = err.Error()
					}
				}
				for i := range m.fr {
					o.regs = append(o.regs, append([]uint64(nil), m.fr[i].regs...))
				}
				o.lastRet, o.c, o.hooks = m.lastRet, m.C, h.calls
				o.word, o.stack = uint64(m.Mem.GetInt(0)), m.Mem.StackMark()
				return o
			}
			timed, untimed := run(false), run(true)
			if !reflect.DeepEqual(timed, untimed) {
				t.Errorf("%s on %v: untimed %+v, timed %+v", tc.name, be, untimed, timed)
			}
		}
	}
}
