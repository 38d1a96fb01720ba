package ir

import "fmt"

// Op is an IR operation code.
type Op uint8

// Operation codes. The set mirrors a RISC-like target plus the math
// intrinsics the benchmarks need and a handful of protection
// primitives (Check2, Vote3) that the SWIFT/SWIFT-R transforms emit at
// synchronization points. Check2/Vote3 stand for the short
// compare-and-branch / majority-vote sequences a real backend would
// inline; the machine charges them a multi-instruction cost so dynamic
// instruction counts stay honest.
const (
	OpInvalid Op = iota

	// Constants and moves.
	OpConstInt   // dst = imm (Int/Ptr)
	OpConstFloat // dst = fimm
	OpMov        // dst = arg0 (same type)

	// Integer arithmetic (also used for Ptr address computation).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg

	// Comparisons produce Int 0/1.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpFEq
	OpFNe
	OpFLt
	OpFLe
	OpFGt
	OpFGe

	// Conversions.
	OpIToF // Int -> Float
	OpFToI // Float -> Int (truncating)

	// Memory. Addresses are Ptr-typed registers holding word indexes.
	OpLoad   // dst = mem[arg0]
	OpStore  // mem[arg0] = arg1
	OpAlloca // dst = stack-allocate Imm words (freed at function return)

	// Math intrinsics (unary unless noted).
	OpSqrt
	OpExp
	OpLog
	OpFAbs
	OpPow // dst = pow(arg0, arg1)
	OpFloor
	OpFMin
	OpFMax

	// Control flow (block terminators).
	OpBr     // unconditional branch to Blocks[0]
	OpCondBr // if arg0 != 0 branch to Blocks[0] else Blocks[1]
	OpRet    // return arg0 (or nothing when no args)

	// Calls.
	OpCall // dst = call Callee(args...)

	// Protection primitives.
	OpCheck2 // compare arg0, arg1; signal detection on mismatch (SWIFT)
	OpVote3  // dst = majority(arg0, arg1, arg2) (SWIFT-R recovery)

	// Prediction-based protection runtime hooks. These are emitted by
	// the rskip transform inside PP loop versions and are serviced by
	// the run-time management system through the machine's runtime
	// bridge.
	OpRTLoopEnter // args: loop id (Imm); arg0.. = invariant live-ins
	OpRTObserve   // Imm = loop id; arg0 = iter, arg1 = value, arg2 = addr
	OpRTLoopExit  // Imm = loop id

	opMax // sentinel
)

// NumOps is the number of opcode values (including OpInvalid); dense
// per-opcode tables (the machine's counters, cost tables) are indexed
// [0, NumOps).
const NumOps = int(opMax)

var opNames = [...]string{
	OpInvalid:     "invalid",
	OpConstInt:    "const",
	OpConstFloat:  "fconst",
	OpMov:         "mov",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpDiv:         "div",
	OpRem:         "rem",
	OpAnd:         "and",
	OpOr:          "or",
	OpXor:         "xor",
	OpShl:         "shl",
	OpShr:         "shr",
	OpNeg:         "neg",
	OpFAdd:        "fadd",
	OpFSub:        "fsub",
	OpFMul:        "fmul",
	OpFDiv:        "fdiv",
	OpFNeg:        "fneg",
	OpEq:          "eq",
	OpNe:          "ne",
	OpLt:          "lt",
	OpLe:          "le",
	OpGt:          "gt",
	OpGe:          "ge",
	OpFEq:         "feq",
	OpFNe:         "fne",
	OpFLt:         "flt",
	OpFLe:         "fle",
	OpFGt:         "fgt",
	OpFGe:         "fge",
	OpIToF:        "itof",
	OpFToI:        "ftoi",
	OpLoad:        "load",
	OpStore:       "store",
	OpAlloca:      "alloca",
	OpSqrt:        "sqrt",
	OpExp:         "exp",
	OpLog:         "log",
	OpFAbs:        "fabs",
	OpPow:         "pow",
	OpFloor:       "floor",
	OpFMin:        "fmin",
	OpFMax:        "fmax",
	OpBr:          "br",
	OpCondBr:      "condbr",
	OpRet:         "ret",
	OpCall:        "call",
	OpCheck2:      "check2",
	OpVote3:       "vote3",
	OpRTLoopEnter: "rt.enter",
	OpRTObserve:   "rt.observe",
	OpRTLoopExit:  "rt.exit",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool {
	return op == OpBr || op == OpCondBr || op == OpRet
}

// HasDst reports whether the operation writes a destination register.
func (op Op) HasDst() bool {
	switch op {
	case OpStore, OpBr, OpCondBr, OpRet, OpCheck2,
		OpRTLoopEnter, OpRTObserve, OpRTLoopExit:
		return false
	case OpCall:
		return true // callers use NoReg for void calls
	}
	return op != OpInvalid && op < opMax
}

// IsCompare reports whether the operation is a comparison.
func (op Op) IsCompare() bool {
	return op >= OpEq && op <= OpFGe
}

// IsPure reports whether the operation has no side effect beyond
// writing its destination register. Pure operations are the ones the
// duplication transforms clone.
func (op Op) IsPure() bool {
	switch op {
	case OpStore, OpAlloca, OpBr, OpCondBr, OpRet, OpCall, OpCheck2,
		OpRTLoopEnter, OpRTObserve, OpRTLoopExit, OpInvalid:
		return false
	}
	return op < opMax
}
