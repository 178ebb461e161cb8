// Package mir defines the machine IR: the instruction set of the simulated
// register machine that IR is lowered to. Machine code in this ISA is what
// object files contain, what the linker patches, what the execution engine
// runs with a cycle cost model, and what the binary-level instrumentation
// baselines (DrCov-style translation, DynInst-style rewriting) operate on.
package mir

import (
	"fmt"

	"odin/internal/ir"
)

// Reg is a machine register number.
type Reg uint8

// Register file: 12 general-purpose registers plus the stack pointer.
// r0..r5 pass arguments and r0 returns the result (caller-saved);
// r6..r11 are callee-saved by convention.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	SP      // stack pointer
	NumRegs = 13
)

// MaxRegArgs is the number of arguments passed in registers. The code
// generator rejects calls with more arguments.
const MaxRegArgs = 6

func (r Reg) String() string {
	if r == SP {
		return "sp"
	}
	return fmt.Sprintf("r%d", int(r))
}

// Op is a machine opcode.
type Op uint8

// Machine opcodes.
const (
	Nop Op = iota
	// MovReg: rd <- rs1.
	MovReg
	// MovImm: rd <- imm.
	MovImm
	// ALU: rd <- rs1 <aluop> rs2, truncated to Width.
	ALU
	// ALUImm: rd <- rs1 <aluop> imm, truncated to Width.
	ALUImm
	// CmpSet: rd <- Pred(rs1, rs2) interpreted at Width; result 0/1.
	CmpSet
	// Ext: rd <- zero-extension of rs1 from Width (SignExt selects sext,
	// which under the sign-normalized value invariant is a move).
	Ext
	// TruncW: rd <- rs1 truncated (sign-normalized) to Width.
	TruncW
	// Load: rd <- mem[rs1 + Imm], Size bytes, sign-extended.
	Load
	// Store: mem[rs1 + Imm] <- rs2, Size bytes.
	Store
	// Lea: rd <- address of Sym plus Imm (relocated at link time).
	Lea
	// Jmp: continue at instruction Target.
	Jmp
	// JmpIf: if rs1 != 0, continue at instruction Target.
	JmpIf
	// Call: call Sym (relocated to a function or builtin index).
	Call
	// Ret: return to caller.
	Ret
	// Enter: sp -= Imm (frame allocation).
	Enter
	// Leave: sp += Imm (frame deallocation).
	Leave
	// Trap: abort execution (unreachable).
	Trap
	// Probe is a pseudo-instruction inserted by binary-level
	// instrumentation: it bumps a counter in the data segment without
	// using architectural registers, at a fixed cycle cost that models
	// register stealing in a code cache. Compiler-based tools never emit
	// it.
	Probe
	// CostSim is a no-op whose cycle cost is Imm. Binary-level
	// instrumenters insert it to model overheads that have no compact
	// instruction equivalent: code-cache dispatch, trampoline context
	// save/restore. It keeps timing modeling explicit and auditable.
	CostSim
)

var opNames = [...]string{
	Nop: "nop", MovReg: "mov", MovImm: "movi", ALU: "alu", ALUImm: "alui",
	CmpSet: "cmpset", Ext: "ext", TruncW: "trunc", Load: "load", Store: "store",
	Lea: "lea", Jmp: "jmp", JmpIf: "jmpif", Call: "call", Ret: "ret",
	Enter: "enter", Leave: "leave", Trap: "trap", Probe: "probe",
	CostSim: "costsim",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("mop(%d)", int(o))
}

// Inst is one machine instruction.
type Inst struct {
	Op       Op
	Rd       Reg
	Rs1, Rs2 Reg
	Imm      int64
	ALUOp    ir.Op         // ALU/ALUImm
	Pred     ir.Pred       // CmpSet
	Width    ir.ScalarType // operation width for ALU/CmpSet/Ext/TruncW
	SignExt  bool          // Ext: sign- vs zero-extension
	Size     int64         // Load/Store access size in bytes
	Sym      string        // Call/Lea symbol, resolved at link time
	Target   int           // Jmp/JmpIf destination instruction index

	// FuncIdx is filled by the linker for Call: >= 0 indexes the linked
	// function table, < 0 encodes builtin -(FuncIdx+1).
	FuncIdx int
	// ProbeAddr is filled by the linker (or a binary instrumenter) for
	// Probe: the data address of the counter to bump.
	ProbeAddr int64
}

func (in Inst) String() string {
	switch in.Op {
	case MovReg:
		return fmt.Sprintf("mov %s, %s", in.Rd, in.Rs1)
	case MovImm:
		return fmt.Sprintf("movi %s, %d", in.Rd, in.Imm)
	case ALU:
		return fmt.Sprintf("%s.%s %s, %s, %s", in.ALUOp, in.Width, in.Rd, in.Rs1, in.Rs2)
	case ALUImm:
		return fmt.Sprintf("%s.%s %s, %s, %d", in.ALUOp, in.Width, in.Rd, in.Rs1, in.Imm)
	case CmpSet:
		return fmt.Sprintf("cmpset.%s.%s %s, %s, %s", in.Pred, in.Width, in.Rd, in.Rs1, in.Rs2)
	case Ext:
		k := "zext"
		if in.SignExt {
			k = "sext"
		}
		return fmt.Sprintf("%s.%s %s, %s", k, in.Width, in.Rd, in.Rs1)
	case TruncW:
		return fmt.Sprintf("trunc.%s %s, %s", in.Width, in.Rd, in.Rs1)
	case Load:
		return fmt.Sprintf("load%d %s, [%s%+d]", in.Size, in.Rd, in.Rs1, in.Imm)
	case Store:
		return fmt.Sprintf("store%d [%s%+d], %s", in.Size, in.Rs1, in.Imm, in.Rs2)
	case Lea:
		return fmt.Sprintf("lea %s, %s%+d", in.Rd, in.Sym, in.Imm)
	case Jmp:
		return fmt.Sprintf("jmp %d", in.Target)
	case JmpIf:
		return fmt.Sprintf("jmpif %s, %d", in.Rs1, in.Target)
	case Call:
		return fmt.Sprintf("call %s", in.Sym)
	case Probe:
		return fmt.Sprintf("probe %#x", in.ProbeAddr)
	case Enter:
		return fmt.Sprintf("enter %d", in.Imm)
	case Leave:
		return fmt.Sprintf("leave %d", in.Imm)
	default:
		return in.Op.String()
	}
}

// Cycles returns the cost of executing the instruction once. The execution
// engine asks when it decodes an image, and adds taken-branch and builtin-call
// costs as it runs.
func (in *Inst) Cycles() int64 {
	switch in.Op {
	case Nop:
		return 1
	case MovReg, MovImm, Lea, Ext, TruncW, CmpSet:
		return 1
	case ALU, ALUImm:
		switch in.ALUOp {
		case ir.OpMul:
			return 3
		case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem:
			return 12
		}
		return 1
	case Load, Store:
		return 3
	case Jmp:
		return 1
	case JmpIf:
		return 1 // +1 taken-branch penalty applied by the engine
	case Call, Ret:
		return 2
	case Enter, Leave:
		return 1
	case Probe:
		// Models inc-in-code-cache with register stealing: spill one
		// register, load counter address, load/add/store, restore.
		return 6
	case CostSim:
		return in.Imm
	case Trap:
		return 0
	}
	return 1
}

// Linkage of an object-file symbol.
type Linkage uint8

// Symbol linkage kinds (object-file level).
const (
	// Global symbols resolve across object files.
	Global Linkage = iota
	// Local symbols are visible only within their object file.
	Local
)

func (l Linkage) String() string {
	if l == Local {
		return "local"
	}
	return "global"
}
