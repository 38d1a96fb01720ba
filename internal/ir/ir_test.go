package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildAddOne builds: func addone(int x) int { return x + 1 }.
func buildAddOne() *Func {
	b := NewBuilder("addone", []Param{{Name: "x", Type: Int}}, Int)
	one := b.ConstInt(1)
	sum := b.Binop(OpAdd, Int, 0, one)
	b.Ret(sum)
	return b.F
}

func TestBuilderBasics(t *testing.T) {
	f := buildAddOne()
	if f.NumRegs != 3 {
		t.Errorf("NumRegs = %d, want 3 (param, const, sum)", f.NumRegs)
	}
	if len(f.Blocks) != 1 || len(f.Blocks[0].Instrs) != 3 {
		t.Fatalf("unexpected block shape: %+v", f.Blocks)
	}
	m := &Module{Name: "t", Funcs: []*Func{f}}
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestBuilderControlFlow(t *testing.T) {
	b := NewBuilder("abs", []Param{{Name: "x", Type: Int}}, Int)
	zero := b.ConstInt(0)
	c := b.Binop(OpLt, Int, 0, zero)
	neg := b.NewBlock("neg")
	pos := b.NewBlock("pos")
	b.CondBr(c, neg, pos)
	b.SetBlock(neg)
	n := b.Unop(OpNeg, Int, 0)
	b.Ret(n)
	b.SetBlock(pos)
	b.Ret(0)
	m := &Module{Name: "t", Funcs: []*Func{b.F}}
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestBuilderEmitAfterTerminatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic emitting after a terminator")
		}
	}()
	b := NewBuilder("bad", nil, Void)
	b.Ret(NoReg)
	b.ConstInt(1)
}

func TestVerifyCatches(t *testing.T) {
	mk := func(mut func(*Func)) *Module {
		f := buildAddOne()
		mut(f)
		return &Module{Name: "t", Funcs: []*Func{f}}
	}
	cases := []struct {
		name string
		mut  func(*Func)
		want string
	}{
		{"empty block", func(f *Func) { f.Blocks = append(f.Blocks, Block{Name: "e"}) }, "empty"},
		{"bad register", func(f *Func) { f.Blocks[0].Instrs[1].Args = []Reg{99} }, "bad register"},
		{"missing terminator", func(f *Func) {
			f.Blocks[0].Instrs = f.Blocks[0].Instrs[:2]
		}, "terminator"},
		{"terminator mid-block", func(f *Func) {
			f.Blocks[0].Instrs[0] = Instr{Op: OpRet, Args: []Reg{0}}
		}, "terminator"},
		{"bad branch target", func(f *Func) {
			f.Blocks[0].Instrs[2] = Instr{Op: OpBr, Blocks: []int{7}}
		}, "bad block target"},
		{"arity", func(f *Func) {
			f.Blocks[0].Instrs[1].Args = []Reg{0}
		}, "args"},
		{"regtype len", func(f *Func) { f.RegType = f.RegType[:1] }, "RegType"},
		{"void ret value", func(f *Func) {
			f.Ret = Void
		}, "void return"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := Verify(mk(tt.mut))
			if err == nil {
				t.Fatalf("expected error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestVerifyCallChecks(t *testing.T) {
	callee := buildAddOne()
	b := NewBuilder("caller", nil, Int)
	arg := b.ConstInt(5)
	r := b.Call(0, Int, arg)
	b.Ret(r)
	m := &Module{Name: "t", Funcs: []*Func{callee, b.F}}
	// Callee index 0 is addone(int): fine.
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Wrong arg count.
	bad := m.Clone()
	bad.Funcs[1].Blocks[0].Instrs[1].Args = nil
	if err := Verify(bad); err == nil || !strings.Contains(err.Error(), "args, want") {
		t.Fatalf("want arg-count error, got %v", err)
	}
	// Wrong arg type.
	bad2 := m.Clone()
	bad2.Funcs[1].RegType[0] = Float
	if err := Verify(bad2); err == nil || !strings.Contains(err.Error(), "type") {
		t.Fatalf("want arg-type error, got %v", err)
	}
	// Bad callee index.
	bad3 := m.Clone()
	bad3.Funcs[1].Blocks[0].Instrs[1].Callee = 9
	if err := Verify(bad3); err == nil || !strings.Contains(err.Error(), "bad callee") {
		t.Fatalf("want callee error, got %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := buildAddOne()
	m := &Module{Name: "t", Funcs: []*Func{f},
		Loops: []LoopInfo{{ID: 1, Name: "l"}}}
	c := m.Clone()
	c.Funcs[0].Blocks[0].Instrs[0].Imm = 42
	c.Funcs[0].Blocks[0].Instrs[1].Args[0] = 2
	c.Loops[0].Name = "changed"
	if m.Funcs[0].Blocks[0].Instrs[0].Imm == 42 {
		t.Error("instruction Imm shared after clone")
	}
	if m.Funcs[0].Blocks[0].Instrs[1].Args[0] == 2 {
		t.Error("instruction Args shared after clone")
	}
	if m.Loops[0].Name == "changed" {
		t.Error("loops shared after clone")
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpBr.IsTerminator() || !OpCondBr.IsTerminator() || !OpRet.IsTerminator() {
		t.Error("terminators misclassified")
	}
	if OpAdd.IsTerminator() || OpStore.IsTerminator() {
		t.Error("non-terminators misclassified")
	}
	if OpStore.HasDst() || OpBr.HasDst() || OpCheck2.HasDst() {
		t.Error("dst-less ops misclassified")
	}
	if !OpAdd.HasDst() || !OpLoad.HasDst() || !OpVote3.HasDst() {
		t.Error("dst ops misclassified")
	}
	if !OpEq.IsCompare() || !OpFGe.IsCompare() || OpAdd.IsCompare() {
		t.Error("compares misclassified")
	}
	if OpStore.IsPure() || OpCall.IsPure() || OpAlloca.IsPure() {
		t.Error("impure ops misclassified")
	}
	if !OpAdd.IsPure() || !OpLoad.IsPure() || !OpSqrt.IsPure() {
		t.Error("pure ops misclassified")
	}
}

func TestOpStringsUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := OpConstInt; op < opMax; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("ops %d and %d share name %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestModuleLookups(t *testing.T) {
	m := &Module{Funcs: []*Func{buildAddOne()},
		Loops: []LoopInfo{{ID: 3, Name: "x"}}}
	if m.FuncByName("addone") != 0 || m.FuncByName("nope") != -1 {
		t.Error("FuncByName wrong")
	}
	if m.LoopByID(3) == nil || m.LoopByID(4) != nil {
		t.Error("LoopByID wrong")
	}
}

func TestPrintSmoke(t *testing.T) {
	m := &Module{Name: "t", Funcs: []*Func{buildAddOne()},
		Loops: []LoopInfo{{ID: 0, Name: "k", MemoFn: -1}}}
	s := m.String()
	for _, want := range []string{"module t", "func addone", "const 1", "add", "ret", "loop 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed module missing %q:\n%s", want, s)
		}
	}
}

// Property: NewReg allocates distinct, typed registers.
func TestNewRegProperty(t *testing.T) {
	f := &Func{Name: "p"}
	check := func(isFloat bool) bool {
		typ := Int
		if isFloat {
			typ = Float
		}
		r := f.NewReg(typ)
		return f.TypeOf(r) == typ && int(r) == f.NumRegs-1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
