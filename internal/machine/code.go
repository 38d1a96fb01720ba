package machine

import (
	"sync"

	"rskip/internal/analysis"
	"rskip/internal/ir"
)

// Code is a module pre-decoded for fast execution: every function
// flattened into contiguous decoded-instruction arrays with the
// per-instruction μop weight, the first three register operands, and
// branch targets resolved out of the ir.Instr indirections. A Code is
// immutable once built and safe to share between machines (campaign
// workers build it once per module and pass it through Config.Code).
type Code struct {
	mod *ir.Module
	fns []fcode
	// loads is the module's number of static loads, which
	// dinstr.load numbers.
	loads int

	// compiled is the closure-threaded form (compiled.go), built
	// lazily the first time a BackendCompiled machine uses this Code
	// and shared by every such machine afterwards — the batch-campaign
	// "one compiled code object per module".
	compiledOnce sync.Once
	compiled     *ccode

	// live is the per-function live-register solution replicas compare
	// registers by (converge.go), solved on first use.
	liveOnce sync.Once
	live     []*analysis.Liveness

	// loops is the per-function natural-loop forest hang proofs walk
	// (hangproof.go), found on first use.
	loopsOnce sync.Once
	loops     []loopForest
}

// compiledForm returns the closure-threaded form, compiling it on
// first use. Safe for concurrent machines (campaign workers).
func (c *Code) compiledForm() *ccode {
	c.compiledOnce.Do(func() { c.compiled = compileClosures(c) })
	return c.compiled
}

// fcode is one pre-decoded function.
type fcode struct {
	blocks []dblock
}

// dblock is one pre-decoded basic block.
type dblock struct {
	ins []dinstr
	// uops is the total μop weight of the block — the block-boundary
	// hang/cancel checks compare it against the remaining budget to
	// decide whether the block can run without per-instruction checks.
	uops uint64
}

// dinstr is a pre-decoded instruction. The hot fields (op, μop weight,
// tag, up to three register operands, branch targets) are flat; src
// points back at the original ir.Instr for the slow paths that need
// the full operand list (calls, runtime hooks, fault operand picks,
// tracing).
type dinstr struct {
	op    ir.Op
	tag   ir.InstrTag
	n     uint8 // uops(op)
	lat   uint8 // latency(op)
	nargs uint8
	// brk marks instructions after which runPlain and a compiled
	// segment must return to the outer dispatch: terminators (the block
	// ended) and calls/runtime hooks (the frame stack may have changed
	// or been reallocated).
	brk    bool
	dst    ir.Reg
	a0     ir.Reg
	a1     ir.Reg
	a2     ir.Reg
	imm    int64
	fimm   float64
	b0     int32 // resolved branch target (OpBr, OpCondBr true arm)
	b1     int32 // resolved branch target (OpCondBr false arm)
	callee int32
	load   int32 // OpLoad: the load's index among the module's loads (Capture.loads)
	src    *ir.Instr
}

// CompileCode pre-decodes a module. The result may be reused for any
// number of machines executing the module; callers that create one
// machine per run (fault campaigns) should build it once and pass it
// via Config.Code so the decode cost is not paid per run.
func CompileCode(mod *ir.Module) *Code {
	c := &Code{mod: mod, fns: make([]fcode, len(mod.Funcs))}
	for fi, fn := range mod.Funcs {
		fc := &c.fns[fi]
		fc.blocks = make([]dblock, len(fn.Blocks))
		// One contiguous array per function keeps the decoded stream
		// cache-dense; block views slice into it.
		total := 0
		for bi := range fn.Blocks {
			total += len(fn.Blocks[bi].Instrs)
		}
		flat := make([]dinstr, 0, total)
		for bi := range fn.Blocks {
			start := len(flat)
			for ii := range fn.Blocks[bi].Instrs {
				d := decode(&fn.Blocks[bi].Instrs[ii])
				if d.op == ir.OpLoad {
					d.load = int32(c.loads)
					c.loads++
				}
				flat = append(flat, d)
			}
			blk := &fc.blocks[bi]
			blk.ins = flat[start:len(flat):len(flat)]
			for k := range blk.ins {
				blk.uops += uint64(blk.ins[k].n)
			}
		}
	}
	return c
}

func decode(in *ir.Instr) dinstr {
	d := dinstr{
		op:     in.Op,
		tag:    in.Tag,
		n:      uint8(uops(in.Op)),
		lat:    uint8(latency(in.Op)),
		nargs:  uint8(len(in.Args)),
		dst:    in.Dst,
		a0:     ir.NoReg,
		a1:     ir.NoReg,
		a2:     ir.NoReg,
		imm:    in.Imm,
		fimm:   in.FImm,
		callee: int32(in.Callee),
		src:    in,
	}
	if !in.Op.HasDst() {
		d.dst = ir.NoReg
	}
	if len(in.Args) > 0 {
		d.a0 = in.Args[0]
	}
	if len(in.Args) > 1 {
		d.a1 = in.Args[1]
	}
	if len(in.Args) > 2 {
		d.a2 = in.Args[2]
	}
	if len(in.Blocks) > 0 {
		d.b0 = int32(in.Blocks[0])
	}
	if len(in.Blocks) > 1 {
		d.b1 = int32(in.Blocks[1])
	}
	switch in.Op {
	case ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpCall,
		ir.OpRTLoopEnter, ir.OpRTObserve, ir.OpRTLoopExit:
		d.brk = true
	}
	return d
}

// regionFlags materializes the per-block in-region booleans for one
// machine configuration, replacing the RegionBlocks map probe the
// seed interpreter paid on every dynamic instruction.
func (c *Code) regionFlags(cfg *Config) [][]bool {
	if len(cfg.RegionBlocks) == 0 {
		return nil
	}
	flags := make([][]bool, len(c.fns))
	for fi, rb := range cfg.RegionBlocks {
		if fi < 0 || fi >= len(c.fns) || len(rb) == 0 {
			continue
		}
		fb := make([]bool, len(c.fns[fi].blocks))
		for bi, on := range rb {
			if on && bi >= 0 && bi < len(fb) {
				fb[bi] = true
			}
		}
		flags[fi] = fb
	}
	return flags
}
