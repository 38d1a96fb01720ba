package ir

import "fmt"

// Instr is a single IR instruction.
//
// Register operands live in Args; Imm carries integer immediates
// (constants, alloca sizes, loop ids) and FImm float immediates.
// Control-flow targets are block indexes in Blocks. Calls name their
// callee by function index in Callee.
type Instr struct {
	Op     Op
	Dst    Reg
	Args   []Reg
	Imm    int64
	FImm   float64
	Blocks []int // branch targets (block indexes within the function)
	Callee int   // function index for OpCall

	// Tags record which protection role a register computation plays.
	// The rskip transform sets these; the fault-injection campaign and
	// the machine's accounting use them.
	Tag InstrTag
}

// InstrTag classifies an instruction for protection accounting.
type InstrTag uint8

// Instruction protection-role tags.
const (
	TagNone    InstrTag = iota
	TagShadow           // a duplicated (shadow) copy inserted by SWIFT/SWIFT-R
	TagCheck            // a validation/vote inserted at a sync point
	TagValue            // part of a PP loop's predicted value slice
	TagAddress          // address/induction computation inside a PP loop
	TagRuntime          // runtime-management hook
)

var tagNames = [...]string{"", "shadow", "check", "value", "addr", "rt"}

func (t InstrTag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("tag(%d)", uint8(t))
}

// Block is a basic block: a straight-line instruction sequence ending
// in a terminator.
type Block struct {
	Name   string
	Instrs []Instr
}

// Terminator returns the block's final instruction. It panics on an
// empty block; the verifier rejects those first.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		panic("ir: empty block has no terminator")
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// Param describes a function parameter.
type Param struct {
	Name string
	Type Type
}

// LoopInfo annotates a PP-protected loop for the run-time management
// system. The rskip transform records one per versioned loop.
type LoopInfo struct {
	ID          int    // unique per module
	Func        int    // function index
	Name        string // diagnostic label, e.g. "kernel.loop1"
	RecomputeFn int    // function index of the outlined __recompute slice
	// StoreAddrIsLiveIn reports whether recompute reads the stored
	// location's pre-store value (read-modify-write loops such as lud);
	// the runtime then buffers the original value per element.
	SelfRead bool
	// MemoFn, when >= 0, names the function whose results the
	// approximate-memoization table caches (blackscholes'
	// BlkSchlsEqEuroNoDiv). -1 when memoization is not applicable.
	MemoFn int
	// NumInvariants is the count of invariant live-in registers passed
	// to OpRTLoopEnter and forwarded to the recompute function after
	// the iteration index.
	NumInvariants int
	// ValueIsFloat reports whether the predicted value is a float
	// (predictors convert int values for trend arithmetic).
	ValueIsFloat bool
	// HasAROverride/AROverride carry a source pragma's acceptable-range
	// override for this loop (§3 footnote 5).
	HasAROverride bool
	AROverride    float64
}

// AR resolves the loop's acceptable range: the pragma's override when
// present, the deployment-wide global otherwise. The run-time check
// and the trainer both resolve it here, so a loop is trained at the
// range it is validated at.
func (l *LoopInfo) AR(global float64) float64 {
	if l.HasAROverride {
		return l.AROverride
	}
	return global
}

// Func is an IR function.
type Func struct {
	Name    string
	Params  []Param
	Ret     Type
	NumRegs int // registers r0..NumRegs-1; params occupy r0..len(Params)-1
	RegType []Type
	Blocks  []Block

	// Internal marks compiler-generated helpers (outlined recompute
	// slices) that transforms must not re-protect.
	Internal bool
}

// NewReg allocates a fresh register of the given type.
func (f *Func) NewReg(t Type) Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	f.RegType = append(f.RegType, t)
	return r
}

// TypeOf returns the declared type of register r.
func (f *Func) TypeOf(r Reg) Type {
	if r == NoReg {
		return Void
	}
	return f.RegType[r]
}

// ARPragma records a source-level `#pragma rskip ar(x)` attached to a
// loop, identified by its function index and header block.
type ARPragma struct {
	Func   int
	Header int
	AR     float64
}

// Module is a compilation unit: a set of functions plus the loop
// protection metadata produced by the rskip transform.
type Module struct {
	Name    string
	Funcs   []*Func
	Loops   []LoopInfo
	Pragmas []ARPragma
}

// PragmaFor returns the AR override for a loop header, if any.
func (m *Module) PragmaFor(fn, header int) (float64, bool) {
	for _, p := range m.Pragmas {
		if p.Func == fn && p.Header == header {
			return p.AR, true
		}
	}
	return 0, false
}

// FuncByName returns the index of the named function, or -1.
func (m *Module) FuncByName(name string) int {
	for i, f := range m.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// LoopByID returns the loop info with the given id, or nil.
func (m *Module) LoopByID(id int) *LoopInfo {
	for i := range m.Loops {
		if m.Loops[i].ID == id {
			return &m.Loops[i]
		}
	}
	return nil
}

// Clone returns a deep copy of the module. Transforms clone before
// rewriting so the unprotected module stays available as the UNSAFE
// reference and as the source for further schemes.
func (m *Module) Clone() *Module {
	nm := &Module{Name: m.Name}
	nm.Loops = append([]LoopInfo(nil), m.Loops...)
	nm.Pragmas = append([]ARPragma(nil), m.Pragmas...)
	nm.Funcs = make([]*Func, len(m.Funcs))
	for i, f := range m.Funcs {
		nm.Funcs[i] = f.Clone()
	}
	return nm
}

// Clone returns a deep copy of the function.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:     f.Name,
		Params:   append([]Param(nil), f.Params...),
		Ret:      f.Ret,
		NumRegs:  f.NumRegs,
		RegType:  append([]Type(nil), f.RegType...),
		Internal: f.Internal,
	}
	nf.Blocks = make([]Block, len(f.Blocks))
	for i := range f.Blocks {
		src := &f.Blocks[i]
		dst := &nf.Blocks[i]
		dst.Name = src.Name
		dst.Instrs = make([]Instr, len(src.Instrs))
		for j := range src.Instrs {
			in := src.Instrs[j]
			in.Args = append([]Reg(nil), in.Args...)
			in.Blocks = append([]int(nil), in.Blocks...)
			dst.Instrs[j] = in
		}
	}
	return nf
}
