package vm

import (
	"odin/internal/ir"
	"odin/internal/mir"
)

// opcode is the vm's own instruction set, the decoded form of mir.Op.
type opcode uint8

const (
	opBad    opcode = iota // an unknown mir.Op: traps when executed
	opNop                  // Nop and CostSim
	opMov                  // MovReg, and Ext with SignExt
	opMovImm               // MovImm and Lea
	// ALU operations on regs[rs1] and regs[rs2]+imm (one of them is zero):
	// six resolved, then opALU for those that trap, mask or are i1.
	opAdd
	opSub
	opMul
	opAnd
	opOr
	opXor
	opALU
	opCmpSet
	opZext
	opTrunc
	opLoad
	opStore
	opJmp
	opJmpIf
	opCall    // imm is the callee's function index
	opBuiltin // imm is the builtin's index
	opRet
	opEnter
	opLeave
	opTrap
	opProbe
	// opBadPC ends each function and stands in for jump targets outside
	// it: "pc out of range" has never cost a cycle or a step.
	opBadPC
)

// zeroReg is the register an ALU instruction with an immediate operand takes
// as its second: one past the register file, never written.
const zeroReg mir.Reg = mir.NumRegs

// inst is one decoded instruction: what executing it needs, with its cost
// computed once and its jump target or callee as an index.
type inst struct {
	op           opcode
	rd, rs1, rs2 mir.Reg
	// cycles is the instruction's cost, mir.Inst.Cycles.
	cycles int64
	// imm is the immediate or memory offset, the jump target, the callee or
	// builtin index, the probe's counter address, or a compare's predicate.
	imm int64
	// aux is the access size of a load or store, the width of a compare,
	// zero-extension or truncation, or the shift that sign-normalizes a
	// resolved ALU result.
	aux int64
}

// decoded is one function's code in both forms: src, the image's slice, tells
// whether the next image changed it and serves opALU and opBad.
type decoded struct {
	src  []mir.Inst
	code []inst
}

// sameCode reports whether a and b are the same slice of the same array.
func sameCode(a, b []mir.Inst) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// opOf decodes the mir ops that need no choice; any op missing from it is
// opBad.
var opOf = [256]opcode{
	mir.Nop: opNop, mir.CostSim: opNop, mir.MovReg: opMov, mir.MovImm: opMovImm,
	mir.Lea: opMovImm, mir.CmpSet: opCmpSet, mir.TruncW: opTrunc, mir.Load: opLoad,
	mir.Store: opStore, mir.Jmp: opJmp, mir.JmpIf: opJmpIf, mir.Ret: opRet,
	mir.Enter: opEnter, mir.Leave: opLeave, mir.Trap: opTrap, mir.Probe: opProbe,
}

// aluOps resolves the ALU operations that need no trap or mask; opBad, the
// zero, marks the others.
var aluOps = [...]opcode{ir.OpAdd: opAdd, ir.OpSub: opSub, ir.OpMul: opMul,
	ir.OpAnd: opAnd, ir.OpOr: opOr, ir.OpXor: opXor}

// decode translates one function. code[pc] is src[pc]'s decoded form;
// opBadPC sentinels follow, the first at len(src).
func decode(src []mir.Inst) decoded {
	code := make([]inst, len(src), len(src)+1)
	code = append(code, inst{op: opBadPC, imm: int64(len(src))})
	for pc := range src {
		in := &src[pc]
		d := inst{op: opOf[in.Op], rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2, cycles: in.Cycles(), imm: in.Imm, aux: int64(in.Width)}
		switch in.Op {
		case mir.ALU, mir.ALUImm:
			d.op = opALU
			if uint(in.ALUOp) < uint(len(aluOps)) && aluOps[in.ALUOp] != opBad && in.Width != ir.I1 {
				// trunc takes the shift mod 64: a 64-bit width and one
				// without bits both keep the result as it is.
				d.op, d.aux = aluOps[in.ALUOp], int64(64-in.Width.Bits())
			}
			if in.Op == mir.ALU {
				d.imm = 0
			} else {
				d.rs2 = zeroReg
			}
		case mir.CmpSet:
			d.imm = int64(in.Pred)
		case mir.Ext:
			d.op = opZext
			if in.SignExt {
				d.op = opMov
			}
		case mir.Load, mir.Store:
			d.aux = in.Size
		case mir.Jmp, mir.JmpIf:
			d.imm = int64(in.Target)
			if in.Target < 0 || in.Target >= len(src) {
				code = append(code, inst{op: opBadPC, imm: d.imm})
				d.imm = int64(len(code) - 1)
			}
		case mir.Call:
			d.op, d.imm = opCall, int64(in.FuncIdx)
			if in.FuncIdx < 0 {
				d.op, d.imm = opBuiltin, int64(-(in.FuncIdx + 1))
			}
		case mir.Probe:
			d.imm = in.ProbeAddr
		}
		code[pc] = d
	}
	return decoded{src: src, code: code}
}
