package analysis

import (
	"reflect"
	"sort"
	"testing"

	"rskip/internal/ir"
)

// liveFunc hand-builds a function from explicit blocks; successors
// come from the terminators' block lists, as BuildCFG reads them.
func liveFunc(nregs int, blocks ...[]ir.Instr) *ir.Func {
	f := &ir.Func{Name: "hand", NumRegs: nregs, RegType: make([]ir.Type, nregs)}
	for _, ins := range blocks {
		f.Blocks = append(f.Blocks, ir.Block{Instrs: ins})
	}
	return f
}

func regsOf(set []uint64) []int {
	var out []int
	for r := range Regs(set) {
		out = append(out, int(r))
	}
	sort.Ints(out)
	return out
}

// point returns the registers live just before instruction i of block
// b (i == len gives the block's live-out).
func point(lv *Liveness, f *ir.Func, b, i int) []int {
	return regsOf(lv.At(f, b, i))
}

func wantRegs(t *testing.T, what string, got []int, want ...int) {
	t.Helper()
	if len(want) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: live %v, want %v", what, got, want)
	}
}

func TestLivenessLoopCarried(t *testing.T) {
	// b0: r0 = 0; r1 = 10; br b1
	// b1: r2 = r0 < r1; condbr r2 b2 b3
	// b2: r3 = 1; r4 = r0 + r3; r0 = mov r4; br b1
	// b3: ret r0
	f := liveFunc(5,
		[]ir.Instr{
			{Op: ir.OpConstInt, Dst: 0, Imm: 0},
			{Op: ir.OpConstInt, Dst: 1, Imm: 10},
			{Op: ir.OpBr, Blocks: []int{1}},
		},
		[]ir.Instr{
			{Op: ir.OpLt, Dst: 2, Args: []ir.Reg{0, 1}},
			{Op: ir.OpCondBr, Args: []ir.Reg{2}, Blocks: []int{2, 3}},
		},
		[]ir.Instr{
			{Op: ir.OpConstInt, Dst: 3, Imm: 1},
			{Op: ir.OpAdd, Dst: 4, Args: []ir.Reg{0, 3}},
			{Op: ir.OpMov, Dst: 0, Args: []ir.Reg{4}},
			{Op: ir.OpBr, Blocks: []int{1}},
		},
		[]ir.Instr{{Op: ir.OpRet, Args: []ir.Reg{0}}},
	)
	lv := SolveLiveness(f, BuildCFG(f).Succs, nil)
	wantRegs(t, "entry", regsOf(lv.In[0]))
	wantRegs(t, "header", regsOf(lv.In[1]), 0, 1)
	// The back edge carries the bound and the IV into the next trip.
	wantRegs(t, "body exit", regsOf(lv.Out[2]), 0, 1)
	wantRegs(t, "before the add", point(lv, f, 2, 1), 0, 1, 3)
	wantRegs(t, "before the mov", point(lv, f, 2, 2), 1, 4)
	wantRegs(t, "exit block", regsOf(lv.In[3]), 0)
	wantRegs(t, "after ret", point(lv, f, 3, 1))
}

func TestLivenessCallDefinesAtReturn(t *testing.T) {
	// b0: r1 = call f1(r0); call f2(r3) (void); r2 = r1 + r3; ret r2
	f := liveFunc(4, []ir.Instr{
		{Op: ir.OpCall, Dst: 1, Callee: 1, Args: []ir.Reg{0}},
		{Op: ir.OpCall, Dst: ir.NoReg, Callee: 2, Args: []ir.Reg{3}},
		{Op: ir.OpAdd, Dst: 2, Args: []ir.Reg{1, 3}},
		{Op: ir.OpRet, Args: []ir.Reg{2}},
	})
	lv := SolveLiveness(f, BuildCFG(f).Succs, nil)
	// The call kills its destination: r1 arrives with the return.
	wantRegs(t, "before the call", point(lv, f, 0, 0), 0, 3)
	// At the return point r1 is live (the machine drops the callee's
	// retDst there, since the return overwrites it).
	wantRegs(t, "return point", point(lv, f, 0, 1), 1, 3)
	// A void call kills nothing.
	wantRegs(t, "after the void call", point(lv, f, 0, 2), 1, 3)
}

func TestLivenessRuntimeHookOperands(t *testing.T) {
	// Runtime hooks read their operands and define nothing — their
	// Dst field is the zero value, register 0, which must not die.
	// b0: rtenter(r1, r2); rtobserve(r3, r4, r5); rtexit; ret r0
	f := liveFunc(6, []ir.Instr{
		{Op: ir.OpRTLoopEnter, Args: []ir.Reg{1, 2}},
		{Op: ir.OpRTObserve, Args: []ir.Reg{3, 4, 5}},
		{Op: ir.OpRTLoopExit},
		{Op: ir.OpRet, Args: []ir.Reg{0}},
	})
	lv := SolveLiveness(f, BuildCFG(f).Succs, nil)
	wantRegs(t, "entry", regsOf(lv.In[0]), 0, 1, 2, 3, 4, 5)
	wantRegs(t, "after enter", point(lv, f, 0, 1), 0, 3, 4, 5)
	wantRegs(t, "after observe", point(lv, f, 0, 2), 0)
	wantRegs(t, "after exit", point(lv, f, 0, 3), 0)
}

func TestLivenessMultiExit(t *testing.T) {
	// b0: condbr r0 b1 b2; b1: ret r1; b2: r2 = r3 * r3; ret r2
	f := liveFunc(4,
		[]ir.Instr{{Op: ir.OpCondBr, Args: []ir.Reg{0}, Blocks: []int{1, 2}}},
		[]ir.Instr{{Op: ir.OpRet, Args: []ir.Reg{1}}},
		[]ir.Instr{
			{Op: ir.OpMul, Dst: 2, Args: []ir.Reg{3, 3}},
			{Op: ir.OpRet, Args: []ir.Reg{2}},
		},
	)
	c := BuildCFG(f)
	lv := SolveLiveness(f, c.Succs, nil)
	wantRegs(t, "entry", regsOf(lv.In[0]), 0, 1, 3)
	wantRegs(t, "exit b1", regsOf(lv.Out[1]))
	wantRegs(t, "exit b2", regsOf(lv.Out[2]))
	// Restricted to {b0, b1}, the edge into b2 is a region exit: what
	// b2 reads is not upward-exposed into the region.
	region := map[int]bool{0: true, 1: true}
	ue := UpwardExposed(f, c, region, 0)
	if !reflect.DeepEqual(ue, RegSet{0: true, 1: true}) {
		t.Errorf("UpwardExposed over {b0, b1} = %v, want {r0, r1}", ue)
	}
	if got := UpwardExposed(f, c, region, 2); len(got) != 0 {
		t.Errorf("UpwardExposed from an entry outside the region = %v, want empty", got)
	}
}

// TestLivenessWideFunction: register sets span several words.
func TestLivenessWideFunction(t *testing.T) {
	f := liveFunc(200, []ir.Instr{
		{Op: ir.OpAdd, Dst: 150, Args: []ir.Reg{63, 64}},
		{Op: ir.OpRet, Args: []ir.Reg{150}},
	})
	lv := SolveLiveness(f, BuildCFG(f).Succs, nil)
	if lv.W != 4 {
		t.Fatalf("W = %d for 200 registers, want 4", lv.W)
	}
	wantRegs(t, "entry", regsOf(lv.In[0]), 63, 64)
	wantRegs(t, "before ret", point(lv, f, 0, 1), 150)
}
