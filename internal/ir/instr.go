package ir

import "fmt"

// Op is an instruction opcode.
type Op int

// Instruction opcodes.
const (
	OpInvalid Op = iota

	// Binary arithmetic and bitwise operations: two integer operands of
	// the same type, result of that type.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpUDiv
	OpSRem
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// OpICmp compares two integer operands with Pred; result i1.
	OpICmp
	// OpSelect picks operand 1 or 2 based on i1 operand 0.
	OpSelect

	// Conversions: one operand, result of Typ.
	OpZExt
	OpSExt
	OpTrunc

	// Memory.
	OpAlloca // allocates Typ-sized stack slot; AllocaCount elements; result ptr
	OpLoad   // loads Typ from ptr operand 0
	OpStore  // stores operand 0 (value) to ptr operand 1
	OpGEP    // operand 0 ptr, operand 1 index; result = ptr + index*Scale

	// OpCall calls Callee with Operands as arguments; result Typ (Void if none).
	OpCall

	// Terminators.
	OpRet         // optional operand 0 as return value
	OpBr          // unconditional branch to Targets[0]
	OpCondBr      // operand 0 i1; Targets[0] if true, Targets[1] if false
	OpSwitch      // operand 0 integer; Cases[i] -> Targets[i]; default Targets[len(Cases)]
	OpUnreachable // aborts execution

	// OpPhi merges values per predecessor: Operands[i] flows from Incoming[i].
	OpPhi

	// OpCounterInc is the coverage-counter intrinsic: an 8-bit wrapping
	// increment of byte Scale of the global counter array in operand 0.
	// Instrumentation passes emit it because a plain load/add/store
	// sequence would be needlessly bloated; hardware has a single-byte
	// inc. It is a side-effecting instruction with no result.
	OpCounterInc
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpUDiv: "udiv",
	OpSRem: "srem", OpURem: "urem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpICmp: "icmp", OpSelect: "select",
	OpZExt: "zext", OpSExt: "sext", OpTrunc: "trunc",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "gep",
	OpCall: "call", OpRet: "ret", OpBr: "br", OpCondBr: "condbr",
	OpSwitch: "switch", OpUnreachable: "unreachable", OpPhi: "phi",
	OpCounterInc: "covinc",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsBinOp reports whether o is a two-operand arithmetic/bitwise operation.
func (o Op) IsBinOp() bool { return o >= OpAdd && o <= OpAShr }

// IsTerminator reports whether o ends a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpRet, OpBr, OpCondBr, OpSwitch, OpUnreachable:
		return true
	}
	return false
}

// IsConversion reports whether o is a width conversion.
func (o Op) IsConversion() bool {
	switch o {
	case OpZExt, OpSExt, OpTrunc:
		return true
	}
	return false
}

// Pred is an integer comparison predicate.
type Pred int

// Comparison predicates (signed and unsigned).
const (
	PredEQ Pred = iota
	PredNE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
	PredULT
	PredULE
	PredUGT
	PredUGE
)

var predNames = [...]string{"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}

func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", int(p))
}

// Invert returns the predicate with the opposite truth value.
func (p Pred) Invert() Pred {
	switch p {
	case PredEQ:
		return PredNE
	case PredNE:
		return PredEQ
	case PredSLT:
		return PredSGE
	case PredSLE:
		return PredSGT
	case PredSGT:
		return PredSLE
	case PredSGE:
		return PredSLT
	case PredULT:
		return PredUGE
	case PredULE:
		return PredUGT
	case PredUGT:
		return PredULE
	case PredUGE:
		return PredULT
	}
	return p
}

// Swap returns the predicate that holds when the operands are exchanged.
func (p Pred) Swap() Pred {
	switch p {
	case PredSLT:
		return PredSGT
	case PredSLE:
		return PredSGE
	case PredSGT:
		return PredSLT
	case PredSGE:
		return PredSLE
	case PredULT:
		return PredUGT
	case PredULE:
		return PredUGE
	case PredUGT:
		return PredULT
	case PredUGE:
		return PredULE
	}
	return p
}

// EvalPred evaluates predicate p on two 64-bit values already normalized to
// their width (sign-extended for their scalar type).
func EvalPred(p Pred, a, b int64, t ScalarType) bool {
	ua, ub := ZeroExtend(a, t), ZeroExtend(b, t)
	switch p {
	case PredEQ:
		return a == b
	case PredNE:
		return a != b
	case PredSLT:
		return a < b
	case PredSLE:
		return a <= b
	case PredSGT:
		return a > b
	case PredSGE:
		return a >= b
	case PredULT:
		return ua < ub
	case PredULE:
		return ua <= ub
	case PredUGT:
		return ua > ub
	case PredUGE:
		return ua >= ub
	}
	return false
}

// Instr is a single IR instruction. One concrete struct represents all
// opcodes; unused fields are zero. This keeps cloning and operand remapping
// uniform, which the Odin scheduler relies on heavily.
type Instr struct {
	Op   Op
	Typ  Type // result type (Void for instructions without results)
	Name string

	Operands []Value
	Pred     Pred     // OpICmp
	Targets  []*Block // terminators
	Cases    []int64  // OpSwitch case values (parallel to Targets[:len(Cases)])
	Incoming []*Block // OpPhi predecessor blocks (parallel to Operands)
	Callee   string   // OpCall target symbol name
	Scale    int64    // OpGEP element size multiplier

	// AllocaCount is the element count for OpAlloca; the slot size is
	// AllocaCount * Typ elem size. For allocas Typ is Ptr and ElemType
	// holds the element type.
	AllocaCount int64
	ElemType    Type // OpAlloca element type; OpLoad/OpStore access type

	Parent *Block
}

// Type implements Value.
func (in *Instr) Type() Type {
	if in.Typ == nil {
		return Void
	}
	return in.Typ
}

// Ref implements Value.
func (in *Instr) Ref() string { return "%" + in.Name }

// HasResult reports whether the instruction produces an SSA value.
func (in *Instr) HasResult() bool {
	t := in.Type()
	return !(t.Equal(Void))
}

// Block is a basic block: a label plus a sequence of instructions ending in
// exactly one terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	Parent *Func
}

// Ref returns the label spelling of the block.
func (b *Block) Ref() string { return b.Name }

// Term returns the block terminator, or nil if the block is not yet closed.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the successor blocks of b in terminator order.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Append adds an instruction to the end of the block and sets its parent.
func (b *Block) Append(in *Instr) {
	in.Parent = b
	b.Instrs = append(b.Instrs, in)
}

// InsertBefore inserts in immediately before the instruction at index idx.
func (b *Block) InsertBefore(idx int, in *Instr) {
	in.Parent = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// RemoveAt deletes the instruction at index idx.
func (b *Block) RemoveAt(idx int) {
	b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
}

// Phis returns the leading phi instructions of the block.
func (b *Block) Phis() []*Instr {
	var out []*Instr
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		out = append(out, in)
	}
	return out
}
