package analysis

import (
	"math/bits"
	"slices"

	"rskip/internal/ir"
)

// RegSet is a simple register set.
type RegSet map[ir.Reg]bool

// Add inserts r.
func (s RegSet) Add(r ir.Reg) { s[r] = true }

// Has reports membership.
func (s RegSet) Has(r ir.Reg) bool { return s[r] }

// Clone copies the set.
func (s RegSet) Clone() RegSet {
	n := make(RegSet, len(s))
	for r := range s {
		n[r] = true
	}
	return n
}

// instrDefs returns the register an instruction defines, or NoReg.
func instrDefs(in *ir.Instr) ir.Reg {
	if in.Op.HasDst() {
		return in.Dst
	}
	return ir.NoReg
}

// Liveness is the dense backward live-register solution of one
// function: a register is live at a point when some path from there
// may read it before writing it. Every set is W uint64 words, register
// r being bit r%64 of word r/64. A call defines its destination at the
// call (the value arrives when the callee returns); a runtime hook
// reads its operands like any instruction.
type Liveness struct {
	W   int
	In  [][]uint64 // per block: live on entry
	Out [][]uint64 // per block: live on exit
}

// SolveLiveness computes the live registers of every block of f over
// the successor lists succs. A non-nil within restricts the analysis
// to the blocks it maps to true: edges leaving them contribute nothing
// (their targets count as exits where nothing is live), and blocks
// outside keep empty sets.
func SolveLiveness(f *ir.Func, succs [][]int, within map[int]bool) *Liveness {
	n := len(f.Blocks)
	w := (regBound(f) + 63) / 64
	lv := &Liveness{W: w, In: make([][]uint64, n), Out: make([][]uint64, n)}
	gen := make([][]uint64, n)
	kill := make([][]uint64, n)
	slab := make([]uint64, 4*n*w)
	for b := 0; b < n; b++ {
		lv.In[b], slab = slab[:w:w], slab[w:]
		lv.Out[b], slab = slab[:w:w], slab[w:]
		gen[b], slab = slab[:w:w], slab[w:]
		kill[b], slab = slab[:w:w], slab[w:]
		if within != nil && !within[b] {
			continue
		}
		// Walking the block backward: a def kills what later code
		// read, a use makes the register live again.
		ins := f.Blocks[b].Instrs
		for i := len(ins) - 1; i >= 0; i-- {
			transfer(gen[b], &ins[i])
			if d := instrDefs(&ins[i]); d >= 0 {
				setBit(kill[b], d)
			}
		}
		copy(lv.In[b], gen[b])
	}
	// Round-robin to the fixpoint, last block first: most edges point
	// forward, so a backward sweep converges in few passes.
	for changed := true; changed; {
		changed = false
		for b := n - 1; b >= 0; b-- {
			if within != nil && !within[b] {
				continue
			}
			out := lv.Out[b]
			for _, s := range succs[b] {
				if within != nil && !within[s] {
					continue
				}
				for k, word := range lv.In[s] {
					out[k] |= word
				}
			}
			in := lv.In[b]
			for k := range in {
				v := gen[b][k] | out[k]&^kill[b][k]
				if v != in[k] {
					in[k] = v
					changed = true
				}
			}
		}
	}
	return lv
}

// At returns the registers live just before instruction i of block b
// (i == len(Instrs) gives the block's live-out), walking the block
// backward from its live-out.
func (lv *Liveness) At(f *ir.Func, b, i int) []uint64 {
	ins := f.Blocks[b].Instrs
	live := slices.Clone(lv.Out[b])
	for j := len(ins) - 1; j >= i; j-- {
		transfer(live, &ins[j])
	}
	return live
}

// Regs returns the registers of one set as a RegSet.
func Regs(set []uint64) RegSet {
	s := RegSet{}
	for k, word := range set {
		for word != 0 {
			s.Add(ir.Reg(64*k + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return s
}

// transfer turns the live set after in into the live set before it:
// the destination dies, the operands become live.
func transfer(live []uint64, in *ir.Instr) {
	if d := instrDefs(in); d >= 0 {
		live[d/64] &^= 1 << (d % 64)
	}
	for _, a := range in.Args {
		if a >= 0 {
			setBit(live, a)
		}
	}
}

func setBit(set []uint64, r ir.Reg) { set[r/64] |= 1 << (r % 64) }

// regBound returns one past the highest register f declares or uses.
func regBound(f *ir.Func) int {
	n := f.NumRegs
	for bi := range f.Blocks {
		for ii := range f.Blocks[bi].Instrs {
			in := &f.Blocks[bi].Instrs[ii]
			for _, a := range in.Args {
				n = max(n, int(a)+1)
			}
			if d := instrDefs(in); d >= 0 {
				n = max(n, int(d)+1)
			}
		}
	}
	return n
}

// UpwardExposed computes the registers whose values flow into a block
// region from outside: liveness over the region's blocks only, with
// nothing live at the region's exits. The result at the region entry
// is exactly the set of registers the region reads before writing —
// the live-ins a recompute slice must receive as arguments.
func UpwardExposed(f *ir.Func, c *CFG, region map[int]bool, entry int) RegSet {
	if !region[entry] {
		return RegSet{}
	}
	return Regs(SolveLiveness(f, c.Succs, region).In[entry])
}

// DefsIn returns all registers defined by instructions in the region.
func DefsIn(f *ir.Func, region map[int]bool) RegSet {
	defs := RegSet{}
	for b := range region {
		for ii := range f.Blocks[b].Instrs {
			if d := instrDefs(&f.Blocks[b].Instrs[ii]); d != ir.NoReg {
				defs.Add(d)
			}
		}
	}
	return defs
}
