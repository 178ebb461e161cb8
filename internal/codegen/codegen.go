// Package codegen lowers IR modules to machine code (object files).
//
// The generator is deliberately simple and predictable: every IR value lives
// in a stack slot and instructions are lowered through scratch registers.
// Code quality therefore tracks IR quality directly — every instruction the
// optimizer removes is machine work removed — which is the property the
// partition-variant experiments (Figure 10) measure. Phi nodes are lowered
// as parallel copies on the incoming edges.
package codegen

import (
	"fmt"

	"odin/internal/ir"
	"odin/internal/mir"
	"odin/internal/obj"
)

// Options selects code-generation strategies.
type Options struct {
	// RegCache enables store-through local register allocation: every
	// result is still written to its frame slot (so memory is always
	// up to date and correctness is unconditional), but values also live
	// in callee-pool registers (r6-r11) for the rest of their basic
	// block, turning repeat reads from 3-cycle loads into 1-cycle moves.
	// The cache is invalidated at block boundaries and across calls
	// (callees clobber registers freely in this ABI). Off by default;
	// the codegen-quality ablation experiment measures its effect.
	RegCache bool
	// FaultHook, when non-nil, is called at site "codegen:module" before
	// lowering and at "codegen:<func>" before each function is compiled; a
	// returned error fails the compile. The faultinject package provides
	// deterministic implementations for robustness testing of the rebuild
	// supervisor.
	FaultHook func(site string) error
}

// CompileModule lowers every defined symbol of m into an object file using
// default options.
func CompileModule(m *ir.Module) (*obj.Object, error) {
	return CompileModuleOpts(m, Options{})
}

// CompileModuleOpts lowers every defined symbol of m into an object file.
func CompileModuleOpts(m *ir.Module, opts Options) (*obj.Object, error) {
	if opts.FaultHook != nil {
		if err := opts.FaultHook("codegen:module"); err != nil {
			return nil, fmt.Errorf("codegen: %s: %w", m.Name, err)
		}
	}
	o := &obj.Object{Name: m.Name}
	for _, g := range m.Globals {
		if g.Decl {
			o.Imports = append(o.Imports, g.Name)
			continue
		}
		o.Datas = append(o.Datas, obj.DataSym{
			Name:    g.Name,
			Linkage: linkageOf(g.Linkage),
			Size:    g.Elem.Size(),
			Init:    append([]byte(nil), g.Init...),
			Const:   g.Const,
		})
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			o.Imports = append(o.Imports, f.Name)
			continue
		}
		if opts.FaultHook != nil {
			if err := opts.FaultHook("codegen:" + f.Name); err != nil {
				return nil, fmt.Errorf("codegen: @%s: %w", f.Name, err)
			}
		}
		fs, err := compileFunc(f, opts)
		if err != nil {
			return nil, fmt.Errorf("codegen: @%s: %w", f.Name, err)
		}
		o.Funcs = append(o.Funcs, *fs)
	}
	for _, a := range m.Aliases {
		o.Aliases = append(o.Aliases, obj.AliasSym{
			Name:    a.Name,
			Target:  a.Target,
			Linkage: linkageOf(a.Linkage),
		})
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

func linkageOf(l ir.Linkage) mir.Linkage {
	if l == ir.Internal {
		return mir.Local
	}
	return mir.Global
}

// fixKind distinguishes branch-fixup destinations.
type fixKind uint8

const (
	toBlock fixKind = iota
	toStub
)

type fixup struct {
	instr int
	kind  fixKind
	id    int // block index or stub index
}

// stub is an edge trampoline performing phi parallel copies then jumping to
// the destination block.
type stub struct {
	code     []mir.Inst
	dstBlock int
}

type fnCompiler struct {
	f     *ir.Func
	code  []mir.Inst
	slots map[ir.Value]int64 // frame offset of each value
	frame int64

	blockIdx map[*ir.Block]int
	starts   []int
	fixups   []fixup
	stubs    []stub
	// tempBase is the frame offset of the phi parallel-copy temp area.
	tempBase int64
	// allocaOff maps each alloca to its reserved frame area.
	allocaOff map[*ir.Instr]int64

	// Store-through register cache (Options.RegCache). cache maps SSA
	// values to the pool register currently holding them; owner is the
	// inverse. SSA values are immutable, so memory stores never
	// invalidate entries — only calls (register clobber) and block
	// boundaries (register state is path-dependent) do.
	regCache bool
	// segUses counts operand references per value within each call-free
	// segment of each block — the cache's profitability signal. A cached
	// value only pays off until the next call (register clobber) or the
	// block end, so uses beyond either are irrelevant.
	segUses  map[*ir.Block][]map[ir.Value]int
	curBlock *ir.Block
	curSeg   int
	cache    map[ir.Value]mir.Reg
	owner    map[mir.Reg]ir.Value
	rotate   int
	// inStub suppresses cache writes while emitting edge stubs: a stub's
	// register writes happen only on its own edge, so recording them
	// would poison the state other stubs of the same block rely on.
	inStub bool
}

// Register-cache pool: r6..r11. Lowering scratch (r0-r2) and argument
// registers (r0-r5) never overlap it.
const (
	cachePoolLo = mir.R6
	cachePoolHi = mir.R11
)

func compileFunc(f *ir.Func, opts Options) (*obj.FuncSym, error) {
	c := &fnCompiler{
		f:        f,
		slots:    make(map[ir.Value]int64),
		blockIdx: make(map[*ir.Block]int),
		regCache: opts.RegCache,
	}
	if c.regCache {
		c.segUses = countSegmentUses(f)
	}
	if len(f.Params) > mir.MaxRegArgs {
		return nil, fmt.Errorf("%d params exceed the %d register-argument ABI", len(f.Params), mir.MaxRegArgs)
	}
	for i, b := range f.Blocks {
		c.blockIdx[b] = i
	}
	if err := c.layoutFrame(); err != nil {
		return nil, err
	}

	// Prologue.
	c.emit(mir.Inst{Op: mir.Enter, Imm: c.frame})
	for i, p := range f.Params {
		c.emit(mir.Inst{Op: mir.Store, Rs1: mir.SP, Imm: c.slots[p], Rs2: mir.Reg(i), Size: 8})
	}

	for bi, b := range f.Blocks {
		c.starts = append(c.starts, len(c.code))
		c.clearCache()
		c.curBlock = b
		c.curSeg = 0
		if err := c.emitBlock(bi, b); err != nil {
			return nil, err
		}
	}
	c.curBlock = nil
	// Emit edge stubs and record their entry points.
	stubStart := make([]int, len(c.stubs))
	for i, s := range c.stubs {
		stubStart[i] = len(c.code)
		c.code = append(c.code, s.code...)
		c.fixups = append(c.fixups, fixup{instr: len(c.code), kind: toBlock, id: s.dstBlock})
		c.emit(mir.Inst{Op: mir.Jmp})
	}
	// Resolve fixups.
	for _, fx := range c.fixups {
		switch fx.kind {
		case toBlock:
			c.code[fx.instr].Target = c.starts[fx.id]
		case toStub:
			c.code[fx.instr].Target = stubStart[fx.id]
		}
	}
	peephole(c.code)
	return &obj.FuncSym{
		Name:        f.Name,
		Linkage:     linkageOf(f.Linkage),
		Code:        c.code,
		NumBlocks:   len(f.Blocks),
		BlockStarts: c.starts,
	}, nil
}

// layoutFrame assigns a slot to every parameter, every instruction result,
// the phi copy temp area, and every alloca.
func (c *fnCompiler) layoutFrame() error {
	off := int64(0)
	alloc := func() int64 {
		o := off
		off += 8
		return o
	}
	// Alloca areas first (stable addresses), then value slots, then temps.
	allocaArea := map[*ir.Instr]int64{}
	for _, b := range c.f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca {
				if in.AllocaCount <= 0 {
					return fmt.Errorf("non-positive alloca count %d", in.AllocaCount)
				}
				allocaArea[in] = off
				off += (in.ElemType.Size()*in.AllocaCount + 7) &^ 7
			}
		}
	}
	for _, p := range c.f.Params {
		c.slots[p] = alloc()
	}
	maxPhis := 0
	for _, b := range c.f.Blocks {
		n := 0
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				n++
			}
			if in.HasResult() {
				c.slots[in] = alloc()
			}
		}
		if n > maxPhis {
			maxPhis = n
		}
	}
	c.tempBase = off
	off += int64(maxPhis) * 8
	c.frame = (off + 15) &^ 15
	// Record alloca area offsets in the slot map under a shifted key: we
	// keep them in a dedicated map instead.
	c.allocaOff = allocaArea
	return nil
}

func (c *fnCompiler) emit(in mir.Inst) {
	c.code = append(c.code, in)
}

// clearCache drops all register-cache state (block boundary, call).
func (c *fnCompiler) clearCache() {
	if !c.regCache {
		return
	}
	c.cache = make(map[ir.Value]mir.Reg)
	c.owner = make(map[mir.Reg]ir.Value)
}

// cacheValue records that v now lives in src and copies it into a pool
// register, provided v has at least minUses operand uses (otherwise the
// copy cannot pay for itself).
func (c *fnCompiler) cacheValue(v ir.Value, src mir.Reg, minUses int) {
	if !c.regCache || c.inStub || c.curBlock == nil {
		return
	}
	segs := c.segUses[c.curBlock]
	if c.curSeg >= len(segs) || segs[c.curSeg][v] < minUses {
		return
	}
	var reg mir.Reg
	found := false
	for r := cachePoolLo; r <= cachePoolHi; r++ {
		if _, taken := c.owner[r]; !taken {
			reg = r
			found = true
			break
		}
	}
	if !found {
		// Rotate-evict: overwrite a pool register round-robin.
		span := int(cachePoolHi-cachePoolLo) + 1
		reg = cachePoolLo + mir.Reg(c.rotate%span)
		c.rotate++
		delete(c.cache, c.owner[reg])
	}
	c.owner[reg] = v
	c.cache[v] = reg
	c.emit(mir.Inst{Op: mir.MovReg, Rd: reg, Rs1: src})
}

// countSegmentUses tallies operand references per value within each
// call-free segment of each block. Call arguments are evaluated before the
// registers are clobbered, so an OpCall's own operands belong to the
// segment it ends.
func countSegmentUses(f *ir.Func) map[*ir.Block][]map[ir.Value]int {
	uses := make(map[*ir.Block][]map[ir.Value]int, len(f.Blocks))
	for _, b := range f.Blocks {
		segs := []map[ir.Value]int{make(map[ir.Value]int)}
		for _, in := range b.Instrs {
			cur := segs[len(segs)-1]
			for _, op := range in.Operands {
				switch op.(type) {
				case *ir.Instr, *ir.Param:
					cur[op]++
				}
			}
			if in.Op == ir.OpCall {
				segs = append(segs, make(map[ir.Value]int))
			}
		}
		uses[b] = segs
	}
	return uses
}

// evalTo materializes an IR operand value into register r.
func (c *fnCompiler) evalTo(r mir.Reg, v ir.Value) error {
	switch x := v.(type) {
	case *ir.ConstInt:
		c.emit(mir.Inst{Op: mir.MovImm, Rd: r, Imm: x.Val})
	case *ir.Param, *ir.Instr:
		if c.regCache {
			if p, ok := c.cache[v]; ok {
				c.emit(mir.Inst{Op: mir.MovReg, Rd: r, Rs1: p})
				return nil
			}
		}
		slot, ok := c.slots[v]
		if !ok {
			return fmt.Errorf("operand %s has no slot", v.Ref())
		}
		c.emit(mir.Inst{Op: mir.Load, Rd: r, Rs1: mir.SP, Imm: slot, Size: 8})
		// Loaded values with further uses in this block are worth
		// keeping around (one use is being consumed right now).
		c.cacheValue(v, r, 2)
	case ir.Global:
		c.emit(mir.Inst{Op: mir.Lea, Rd: r, Sym: x.GlobalName()})
	default:
		return fmt.Errorf("bad operand kind %T", v)
	}
	return nil
}

// storeResult writes register r into the slot of instruction in (store-
// through) and, under the register cache, keeps the value in a pool
// register for later uses within the block.
func (c *fnCompiler) storeResult(in *ir.Instr, r mir.Reg) {
	c.emit(mir.Inst{Op: mir.Store, Rs1: mir.SP, Imm: c.slots[in], Rs2: r, Size: 8})
	// Only multi-use results are cached: a single-use result is already
	// handled optimally by the peephole's store-to-load forwarding, which
	// an interleaved cache copy would defeat.
	c.cacheValue(in, r, 2)
}

// branchTo records a pending branch at the current emission point. If the
// destination block has phis, the branch is routed through a copy stub.
func (c *fnCompiler) branchTarget(from *ir.Block, to *ir.Block) (fixKind, int, error) {
	phis := to.Phis()
	if len(phis) == 0 {
		return toBlock, c.blockIdx[to], nil
	}
	// Build the parallel-copy stub: read all sources into the temp area,
	// then move temps into the phi slots. The stub may READ the register
	// cache (its registers hold the same values as at the terminator) but
	// must not extend it: writes would happen on this edge only.
	var code []mir.Inst
	saved := c.code
	c.code = nil
	c.inStub = true
	defer func() { c.inStub = false }()
	for i, phi := range phis {
		src := phiIncoming(phi, from)
		if src == nil {
			return 0, 0, fmt.Errorf("phi %s has no incoming for %s", phi.Ref(), from.Name)
		}
		if err := c.evalTo(mir.R0, src); err != nil {
			return 0, 0, err
		}
		c.emit(mir.Inst{Op: mir.Store, Rs1: mir.SP, Imm: c.tempBase + int64(i)*8, Rs2: mir.R0, Size: 8})
	}
	for i, phi := range phis {
		c.emit(mir.Inst{Op: mir.Load, Rd: mir.R0, Rs1: mir.SP, Imm: c.tempBase + int64(i)*8, Size: 8})
		c.emit(mir.Inst{Op: mir.Store, Rs1: mir.SP, Imm: c.slots[phi], Rs2: mir.R0, Size: 8})
	}
	code = c.code
	c.code = saved
	c.stubs = append(c.stubs, stub{code: code, dstBlock: c.blockIdx[to]})
	return toStub, len(c.stubs) - 1, nil
}

func phiIncoming(phi *ir.Instr, from *ir.Block) ir.Value {
	for i, b := range phi.Incoming {
		if b == from {
			return phi.Operands[i]
		}
	}
	return nil
}

func (c *fnCompiler) emitBranch(op mir.Op, rs mir.Reg, from, to *ir.Block) error {
	kind, id, err := c.branchTarget(from, to)
	if err != nil {
		return err
	}
	c.fixups = append(c.fixups, fixup{instr: len(c.code), kind: kind, id: id})
	c.emit(mir.Inst{Op: op, Rs1: rs})
	return nil
}

func widthOf(t ir.Type) ir.ScalarType {
	if st, ok := t.(ir.ScalarType); ok {
		if st == ir.Ptr {
			return ir.I64
		}
		return st
	}
	return ir.I64
}

func (c *fnCompiler) emitBlock(bi int, b *ir.Block) error {
	for _, in := range b.Instrs {
		switch {
		case in.Op == ir.OpPhi:
			// Materialized by predecessor edge stubs.
		case in.Op.IsBinOp():
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			if err := c.evalTo(mir.R1, in.Operands[1]); err != nil {
				return err
			}
			c.emit(mir.Inst{Op: mir.ALU, ALUOp: in.Op, Rd: mir.R0, Rs1: mir.R0, Rs2: mir.R1, Width: widthOf(in.Typ)})
			c.storeResult(in, mir.R0)
		case in.Op == ir.OpICmp:
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			if err := c.evalTo(mir.R1, in.Operands[1]); err != nil {
				return err
			}
			c.emit(mir.Inst{Op: mir.CmpSet, Pred: in.Pred, Rd: mir.R0, Rs1: mir.R0, Rs2: mir.R1, Width: widthOf(in.Operands[0].Type())})
			c.storeResult(in, mir.R0)
		case in.Op == ir.OpSelect:
			// r0 = cond; r1 = a; r2 = b; r1 = cond ? r1 : r2 via branchless
			// select is not in the ISA, so lower to a short branch.
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			if err := c.evalTo(mir.R1, in.Operands[1]); err != nil {
				return err
			}
			if err := c.evalTo(mir.R2, in.Operands[2]); err != nil {
				return err
			}
			// jmpif r0 -> +2 (skip the mov)
			c.emit(mir.Inst{Op: mir.JmpIf, Rs1: mir.R0, Target: len(c.code) + 2})
			c.emit(mir.Inst{Op: mir.MovReg, Rd: mir.R1, Rs1: mir.R2})
			c.storeResult(in, mir.R1)
		case in.Op == ir.OpZExt:
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			c.emit(mir.Inst{Op: mir.Ext, Rd: mir.R0, Rs1: mir.R0, Width: widthOf(in.Operands[0].Type()), SignExt: false})
			c.storeResult(in, mir.R0)
		case in.Op == ir.OpSExt:
			// Values are stored sign-normalized; sext is a move.
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			c.storeResult(in, mir.R0)
		case in.Op == ir.OpTrunc:
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			c.emit(mir.Inst{Op: mir.TruncW, Rd: mir.R0, Rs1: mir.R0, Width: widthOf(in.Typ)})
			c.storeResult(in, mir.R0)
		case in.Op == ir.OpAlloca:
			off, ok := c.allocaOff[in]
			if !ok {
				return fmt.Errorf("alloca without area")
			}
			c.emit(mir.Inst{Op: mir.ALUImm, ALUOp: ir.OpAdd, Rd: mir.R0, Rs1: mir.SP, Imm: off, Width: ir.I64})
			c.storeResult(in, mir.R0)
		case in.Op == ir.OpLoad:
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			c.emit(mir.Inst{Op: mir.Load, Rd: mir.R0, Rs1: mir.R0, Size: in.ElemType.Size()})
			if widthOf(in.Typ) == ir.I1 {
				c.emit(mir.Inst{Op: mir.ALUImm, ALUOp: ir.OpAnd, Rd: mir.R0, Rs1: mir.R0, Imm: 1, Width: ir.I64})
			}
			c.storeResult(in, mir.R0)
		case in.Op == ir.OpStore:
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			if err := c.evalTo(mir.R1, in.Operands[1]); err != nil {
				return err
			}
			c.emit(mir.Inst{Op: mir.Store, Rs1: mir.R1, Rs2: mir.R0, Size: in.ElemType.Size()})
		case in.Op == ir.OpGEP:
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			if err := c.evalTo(mir.R1, in.Operands[1]); err != nil {
				return err
			}
			c.emit(mir.Inst{Op: mir.ALUImm, ALUOp: ir.OpMul, Rd: mir.R1, Rs1: mir.R1, Imm: in.Scale, Width: ir.I64})
			c.emit(mir.Inst{Op: mir.ALU, ALUOp: ir.OpAdd, Rd: mir.R0, Rs1: mir.R0, Rs2: mir.R1, Width: ir.I64})
			c.storeResult(in, mir.R0)
		case in.Op == ir.OpCall:
			if len(in.Operands) > mir.MaxRegArgs {
				return fmt.Errorf("call to @%s with %d args exceeds ABI", in.Callee, len(in.Operands))
			}
			for i, a := range in.Operands {
				if err := c.evalTo(mir.Reg(i), a); err != nil {
					return err
				}
			}
			c.emit(mir.Inst{Op: mir.Call, Sym: in.Callee})
			// Callees clobber registers freely in this ABI; the result
			// (and anything after) belongs to the next segment.
			c.clearCache()
			c.curSeg++
			if in.HasResult() {
				c.storeResult(in, mir.R0)
			}
		case in.Op == ir.OpRet:
			if len(in.Operands) > 0 {
				if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
					return err
				}
			}
			c.emit(mir.Inst{Op: mir.Leave, Imm: c.frame})
			c.emit(mir.Inst{Op: mir.Ret})
		case in.Op == ir.OpBr:
			if err := c.emitBranch(mir.Jmp, 0, b, in.Targets[0]); err != nil {
				return err
			}
		case in.Op == ir.OpCondBr:
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			if err := c.emitBranch(mir.JmpIf, mir.R0, b, in.Targets[0]); err != nil {
				return err
			}
			if err := c.emitBranch(mir.Jmp, 0, b, in.Targets[1]); err != nil {
				return err
			}
		case in.Op == ir.OpSwitch:
			if err := c.evalTo(mir.R2, in.Operands[0]); err != nil {
				return err
			}
			for i, cv := range in.Cases {
				c.emit(mir.Inst{Op: mir.MovImm, Rd: mir.R1, Imm: cv})
				c.emit(mir.Inst{Op: mir.CmpSet, Pred: ir.PredEQ, Rd: mir.R0, Rs1: mir.R2, Rs2: mir.R1, Width: widthOf(in.Operands[0].Type())})
				if err := c.emitBranch(mir.JmpIf, mir.R0, b, in.Targets[i]); err != nil {
					return err
				}
			}
			if err := c.emitBranch(mir.Jmp, 0, b, in.Targets[len(in.Cases)]); err != nil {
				return err
			}
		case in.Op == ir.OpCounterInc:
			// Tight counter-increment sequence (the intrinsic exists so
			// coverage probes cost what a hardware inc-byte costs).
			if err := c.evalTo(mir.R0, in.Operands[0]); err != nil {
				return err
			}
			c.emit(mir.Inst{Op: mir.Load, Rd: mir.R1, Rs1: mir.R0, Imm: in.Scale, Size: 1})
			c.emit(mir.Inst{Op: mir.ALUImm, ALUOp: ir.OpAdd, Rd: mir.R1, Rs1: mir.R1, Imm: 1, Width: ir.I8})
			c.emit(mir.Inst{Op: mir.Store, Rs1: mir.R0, Imm: in.Scale, Rs2: mir.R1, Size: 1})
		case in.Op == ir.OpUnreachable:
			c.emit(mir.Inst{Op: mir.Trap})
		default:
			return fmt.Errorf("cannot lower %s", in.Op)
		}
	}
	return nil
}
