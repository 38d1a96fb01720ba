package analysis

import (
	"reflect"
	"sort"
	"testing"

	"rskip/internal/ir"
)

// cfgFunc hand-builds a Func whose blocks carry exactly the given
// terminators — the minimal structure BuildCFG, Dominators and
// FindLoops consume. edges[i] lists block i's successors: none means
// ret, one means br, two means condbr.
func cfgFunc(t *testing.T, edges [][]int) *ir.Func {
	t.Helper()
	f := &ir.Func{Name: "hand", NumRegs: 1, RegType: []ir.Type{ir.Int}}
	for bi, succ := range edges {
		var term ir.Instr
		switch len(succ) {
		case 0:
			term = ir.Instr{Op: ir.OpRet}
		case 1:
			term = ir.Instr{Op: ir.OpBr, Blocks: []int{succ[0]}}
		case 2:
			term = ir.Instr{Op: ir.OpCondBr, Args: []ir.Reg{0}, Blocks: []int{succ[0], succ[1]}}
		default:
			t.Fatalf("block %d: %d successors", bi, len(succ))
		}
		f.Blocks = append(f.Blocks, ir.Block{Instrs: []ir.Instr{term}})
	}
	return f
}

func loopsOf(t *testing.T, edges [][]int) []Loop {
	t.Helper()
	c := BuildCFG(cfgFunc(t, edges))
	return FindLoops(c, Dominators(c))
}

// TestFindLoopsHandBuilt pins loop detection on explicit CFG shapes,
// independent of what the MiniC lowering happens to emit.
func TestFindLoopsHandBuilt(t *testing.T) {
	cases := []struct {
		name  string
		edges [][]int
		want  []Loop // Header, Latch, sorted block set, Exits, Parent, Depth
	}{
		{
			name: "acyclic diamond has no loops",
			edges: [][]int{
				{1, 2}, // 0
				{3},    // 1
				{3},    // 2
				{},     // 3
			},
			want: nil,
		},
		{
			name: "self-loop",
			edges: [][]int{
				{1},    // 0
				{1, 2}, // 1 -> itself or exit
				{},     // 2
			},
			want: []Loop{{Header: 1, Latch: 1, Blocks: map[int]bool{1: true}, Exits: []int{2}, Parent: -1, Depth: 0}},
		},
		{
			name: "while shape",
			edges: [][]int{
				{1},    // 0 entry
				{2, 3}, // 1 header
				{1},    // 2 body/latch
				{},     // 3 exit
			},
			want: []Loop{{Header: 1, Latch: 2, Blocks: map[int]bool{1: true, 2: true}, Exits: []int{3}, Parent: -1, Depth: 0}},
		},
		{
			name: "nested loops",
			edges: [][]int{
				{1},    // 0 entry
				{2, 5}, // 1 outer header
				{3},    // 2 outer body head
				{3, 4}, // 3 inner self-loop
				{1},    // 4 outer latch
				{},     // 5 exit
			},
			want: []Loop{
				{Header: 1, Latch: 4, Blocks: map[int]bool{1: true, 2: true, 3: true, 4: true}, Exits: []int{5}, Parent: -1, Depth: 0},
				{Header: 3, Latch: 3, Blocks: map[int]bool{3: true}, Exits: []int{4}, Parent: 0, Depth: 1},
			},
		},
		{
			name: "two sibling loops",
			edges: [][]int{
				{1},    // 0
				{1, 2}, // 1 first self-loop
				{3},    // 2
				{3, 4}, // 3 second self-loop
				{},     // 4
			},
			want: []Loop{
				{Header: 1, Latch: 1, Blocks: map[int]bool{1: true}, Exits: []int{2}, Parent: -1, Depth: 0},
				{Header: 3, Latch: 3, Blocks: map[int]bool{3: true}, Exits: []int{4}, Parent: -1, Depth: 0},
			},
		},
		{
			name: "loop with break has two exits",
			edges: [][]int{
				{1},    // 0
				{2, 4}, // 1 header: continue or normal exit
				{3, 5}, // 2 body: latch or break
				{1},    // 3 latch
				{},     // 4 normal exit
				{},     // 5 break target
			},
			want: []Loop{{Header: 1, Latch: 3, Blocks: map[int]bool{1: true, 2: true, 3: true}, Exits: []int{4, 5}, Parent: -1, Depth: 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := loopsOf(t, tc.edges)
			if len(got) != len(tc.want) {
				t.Fatalf("found %d loops, want %d: %+v", len(got), len(tc.want), got)
			}
			for i := range got {
				g, w := got[i], tc.want[i]
				if g.Header != w.Header || g.Latch != w.Latch {
					t.Errorf("loop %d: header/latch = %d/%d, want %d/%d", i, g.Header, g.Latch, w.Header, w.Latch)
				}
				if !reflect.DeepEqual(g.Blocks, w.Blocks) {
					t.Errorf("loop %d: blocks = %v, want %v", i, g.SortedBlocks(), w.Blocks)
				}
				if !reflect.DeepEqual(g.Exits, w.Exits) {
					t.Errorf("loop %d: exits = %v, want %v", i, g.Exits, w.Exits)
				}
				if g.Depth != w.Depth {
					t.Errorf("loop %d: depth = %d, want %d", i, g.Depth, w.Depth)
				}
			}
			// Cross-check nesting via InnermostLoop.
			if tc.name == "nested loops" {
				inner := InnermostLoop(len(tc.edges), got)
				if inner[3] == inner[1] {
					t.Error("inner header must map to the inner loop, not the outer")
				}
				if got[1].Parent != 0 {
					t.Errorf("inner loop parent = %d, want 0", got[1].Parent)
				}
			}
		})
	}
}

// costFunc hand-builds a straight-line or looped function with a known
// instruction mix for cost-model tests.
func costFunc(blocks [][]ir.Op, edges [][]int) *ir.Func {
	f := &ir.Func{Name: "cost", NumRegs: 1, RegType: []ir.Type{ir.Int}}
	for bi, ops := range blocks {
		var blk ir.Block
		for _, op := range ops {
			blk.Instrs = append(blk.Instrs, ir.Instr{Op: op})
		}
		succ := edges[bi]
		switch len(succ) {
		case 0:
			blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpRet})
		case 1:
			blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpBr, Blocks: []int{succ[0]}})
		case 2:
			blk.Instrs = append(blk.Instrs, ir.Instr{Op: ir.OpCondBr, Args: []ir.Reg{0}, Blocks: []int{succ[0], succ[1]}})
		}
		f.Blocks = append(f.Blocks, blk)
	}
	return f
}

// TestCostModelHandBuilt pins FuncCost numbers on hand-built shapes:
// per-op weights, the assumed trip-count multiplier per nesting level,
// and call-cost composition.
func TestCostModelHandBuilt(t *testing.T) {
	t.Run("straight line adds op costs", func(t *testing.T) {
		// add(1) + mul(2) + load(2) + div(8) + sqrt(12) + ret(1) = 26
		f := costFunc([][]ir.Op{{ir.OpAdd, ir.OpMul, ir.OpLoad, ir.OpDiv, ir.OpSqrt}}, [][]int{{}})
		m := &ir.Module{Funcs: []*ir.Func{f}}
		if got := FuncCost(m, 0); got != 26 {
			t.Errorf("FuncCost = %d, want 26", got)
		}
	})
	t.Run("loop body scales by assumed trip count", func(t *testing.T) {
		// b0: br(1); b1 (self-loop): add(1)+condbr(1) at depth 1 -> 8x;
		// b2: ret(1). Total = 1 + 8*2 + 1 = 18.
		f := costFunc([][]ir.Op{{}, {ir.OpAdd}, {}}, [][]int{{1}, {1, 2}, {}})
		m := &ir.Module{Funcs: []*ir.Func{f}}
		if got := FuncCost(m, 0); got != 18 {
			t.Errorf("FuncCost = %d, want 18", got)
		}
	})
	t.Run("nesting multiplies", func(t *testing.T) {
		// Nested shape as in TestFindLoopsHandBuilt: block 3 at depth 2
		// (8^2 = 64x), blocks 1,2,4 at depth 1 (8x), 0 and 5 at depth 0.
		// b0: br = 1; b1: condbr = 8; b2: br = 8; b3: fmul+condbr = 64*(3+1);
		// b4: br = 8; b5: ret = 1. Total = 1+8+8+256+8+1 = 282.
		f := costFunc(
			[][]ir.Op{{}, {}, {}, {ir.OpFMul}, {}, {}},
			[][]int{{1}, {2, 5}, {3}, {3, 4}, {1}, {}})
		m := &ir.Module{Funcs: []*ir.Func{f}}
		if got := FuncCost(m, 0); got != 282 {
			t.Errorf("FuncCost = %d, want 282", got)
		}
	})
	t.Run("runtime hooks are free", func(t *testing.T) {
		f := costFunc([][]ir.Op{{ir.OpRTLoopEnter, ir.OpRTObserve, ir.OpRTLoopExit}}, [][]int{{}})
		m := &ir.Module{Funcs: []*ir.Func{f}}
		if got := FuncCost(m, 0); got != 1 { // just the ret
			t.Errorf("FuncCost = %d, want 1 (hooks must cost 0)", got)
		}
	})
	t.Run("call adds callee cost plus overhead", func(t *testing.T) {
		// callee: exp(16) + ret(1) = 17. caller: call(2+17) + ret(1) = 20.
		callee := costFunc([][]ir.Op{{ir.OpExp}}, [][]int{{}})
		caller := &ir.Func{Name: "caller", NumRegs: 1, RegType: []ir.Type{ir.Int}}
		caller.Blocks = []ir.Block{{Instrs: []ir.Instr{
			{Op: ir.OpCall, Callee: 0},
			{Op: ir.OpRet},
		}}}
		m := &ir.Module{Funcs: []*ir.Func{callee, caller}}
		if got := FuncCost(m, 1); got != 20 {
			t.Errorf("FuncCost = %d, want 20", got)
		}
	})
	t.Run("recursion is cut off", func(t *testing.T) {
		// self-call: call(2 + 64 recursive default) + ret(1) = 67.
		f := &ir.Func{Name: "rec", NumRegs: 1, RegType: []ir.Type{ir.Int}}
		f.Blocks = []ir.Block{{Instrs: []ir.Instr{
			{Op: ir.OpCall, Callee: 0},
			{Op: ir.OpRet},
		}}}
		m := &ir.Module{Funcs: []*ir.Func{f}}
		if got := FuncCost(m, 0); got != 67 {
			t.Errorf("FuncCost = %d, want 67", got)
		}
	})
	t.Run("region cost relative to base depth", func(t *testing.T) {
		// While-shape loop {1,2}; region = loop body at baseDepth 1:
		// no extra scaling — condbr(1) + add(1)+br(1) = 3.
		f := costFunc([][]ir.Op{{}, {}, {ir.OpAdd}, {}}, [][]int{{1}, {2, 3}, {1}, {}})
		m := &ir.Module{Funcs: []*ir.Func{f}}
		c := BuildCFG(f)
		idom := Dominators(c)
		loops := FindLoops(c, idom)
		if len(loops) != 1 {
			t.Fatalf("want 1 loop, got %d", len(loops))
		}
		inner := InnermostLoop(len(f.Blocks), loops)
		got := regionCost(m, f, loops[0].Blocks, loops, inner, 1, map[int]int{})
		if got != 3 {
			t.Errorf("regionCost(baseDepth=1) = %d, want 3", got)
		}
		// At baseDepth 0 the same region scales by one trip factor: 24.
		if got := regionCost(m, f, loops[0].Blocks, loops, inner, 0, map[int]int{}); got != 24 {
			t.Errorf("regionCost(baseDepth=0) = %d, want 24", got)
		}
	})
}

// TestOpCostOrdering pins the relative expense classes the candidate
// detector depends on (transcendental > sqrt > div > fmul > mul > add).
func TestOpCostOrdering(t *testing.T) {
	order := []ir.Op{ir.OpExp, ir.OpSqrt, ir.OpDiv, ir.OpFMul, ir.OpMul, ir.OpAdd}
	costs := make([]int, len(order))
	for i, op := range order {
		costs[i] = opCost(op)
	}
	if !sort.IsSorted(sort.Reverse(sort.IntSlice(costs))) {
		t.Errorf("op costs not in descending expense order: %v", costs)
	}
	if opCost(ir.OpLog) != opCost(ir.OpExp) || opCost(ir.OpPow) != opCost(ir.OpExp) {
		t.Error("transcendentals must share a cost class")
	}
	if opCost(ir.OpRem) != opCost(ir.OpDiv) || opCost(ir.OpFDiv) != opCost(ir.OpDiv) {
		t.Error("division variants must share a cost class")
	}
}

// SortedBlocks returns the loop's blocks in ascending order for
// deterministic iteration.
func (l *Loop) SortedBlocks() []int {
	out := make([]int, 0, len(l.Blocks))
	for b := range l.Blocks {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}
