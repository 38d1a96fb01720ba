package analysis

import "rskip/internal/ir"

// Static cost model. Costs approximate dynamic-instruction weight:
// loop bodies are scaled by an assumed trip count, calls by the
// callee's cost. The candidate detector uses these to pick only
// computations expensive enough that skipping their re-computation
// pays for the prediction (the paper filters out low-overhead loops
// such as initialization).

// assumedTrip is the multiplier applied per loop nesting level when no
// trip count is statically known.
const assumedTrip = 8

// opCost returns the static weight of a single operation.
func opCost(op ir.Op) int {
	switch op {
	case ir.OpDiv, ir.OpRem, ir.OpFDiv:
		return 8
	case ir.OpSqrt:
		return 12
	case ir.OpExp, ir.OpLog, ir.OpPow:
		return 16
	case ir.OpFMul:
		return 3
	case ir.OpMul, ir.OpFAdd, ir.OpFSub:
		return 2
	case ir.OpLoad:
		return 2
	case ir.OpRTLoopEnter, ir.OpRTObserve, ir.OpRTLoopExit:
		return 0
	}
	return 1
}

// FuncCost estimates the cost of one call to function fi, memoizing
// across the module. Recursion is cut off with a conservative default.
func FuncCost(m *ir.Module, fi int) int {
	memo := make(map[int]int)
	return funcCost(m, fi, memo, map[int]bool{})
}

func funcCost(m *ir.Module, fi int, memo map[int]int, onStack map[int]bool) int {
	if c, ok := memo[fi]; ok {
		return c
	}
	if onStack[fi] {
		return 64 // recursive: conservative flat weight
	}
	onStack[fi] = true
	defer delete(onStack, fi)

	f := m.Funcs[fi]
	c := BuildCFG(f)
	idom := Dominators(c)
	loops := FindLoops(c, idom)
	inner := InnermostLoop(len(f.Blocks), loops)

	depthOf := func(b int) int {
		if inner[b] == -1 {
			return 0
		}
		return loops[inner[b]].Depth + 1
	}
	total := 0
	for bi := range f.Blocks {
		w := 1
		for d := 0; d < depthOf(bi); d++ {
			w *= assumedTrip
		}
		for ii := range f.Blocks[bi].Instrs {
			in := &f.Blocks[bi].Instrs[ii]
			ic := opCost(in.Op)
			if in.Op == ir.OpCall {
				ic = 2 + funcCost(m, in.Callee, memo, onStack)
			}
			total += w * ic
		}
	}
	memo[fi] = total
	return total
}

// regionCost estimates the cost of one traversal of a block region
// inside function f (one loop iteration when the region is a loop
// body). Inner loops inside the region are scaled by assumedTrip per
// extra nesting level relative to baseDepth. Calls are priced through
// memo, so a Manager shares one call-cost memo across every region it
// prices.
func regionCost(m *ir.Module, f *ir.Func, region map[int]bool, loops []Loop, inner []int, baseDepth int, memo map[int]int) int {
	total := 0
	for b := range region {
		d := 0
		if inner[b] != -1 {
			d = loops[inner[b]].Depth + 1
		}
		extra := d - baseDepth
		if extra < 0 {
			extra = 0
		}
		w := 1
		for i := 0; i < extra; i++ {
			w *= assumedTrip
		}
		for ii := range f.Blocks[b].Instrs {
			in := &f.Blocks[b].Instrs[ii]
			ic := opCost(in.Op)
			if in.Op == ir.OpCall {
				ic = 2 + funcCost(m, in.Callee, memo, map[int]bool{})
			}
			total += w * ic
		}
	}
	return total
}
