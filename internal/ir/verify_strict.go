package ir

import (
	"fmt"
)

// VerifyStrict is the strict verification tier: everything Verify checks,
// plus dominance-based SSA checking (every operand use dominated by its
// definition; phi incomings checked at the predecessor edge), full
// operand/result type checking for every opcode, and terminator shape
// checking. Like Verify, it reports every defect — including one that would
// crash the checker itself — as a *VerifyError, never a panic.
//
// Unreachable blocks are not rejected: optimization legitimately creates
// them mid-pipeline (a constant-folded condbr leaves its dead target behind
// until simplifycfg sweeps it a fixpoint iteration later), so the
// after-every-pass tier must accept them. Dominance checks apply to
// reachable code only; unreachable blocks still get structural, terminator,
// and type checks. DomTree.UnreachableBlocks exposes detection for callers
// that want to reject them at a true module boundary.
func VerifyStrict(m *Module) error {
	if err := Verify(m); err != nil {
		return err
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		if err := VerifyFuncStrict(m, f); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFuncStrict runs the strict tier over one function: VerifyFunc's
// structural checks, then terminator shapes, per-opcode type rules, and
// dominance. It computes the function's dominator tree itself; callers that
// already hold one use VerifyFuncStrictDom.
func VerifyFuncStrict(m *Module, f *Func) error {
	return VerifyFuncStrictDom(m, f, nil)
}

// VerifyFuncStrictDom is VerifyFuncStrict with a caller-supplied dominator
// tree (computed over exactly this function's current CFG); dom == nil
// computes one internally.
func VerifyFuncStrictDom(m *Module, f *Func, dom *DomTree) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// Malformed IR must yield a *VerifyError, never a panic: a nil
			// operand or dangling parent pointer that trips the checker is
			// itself the defect being reported.
			err = &VerifyError{"@" + f.Name, fmt.Sprintf("malformed IR crashed the verifier: %v", r)}
		}
	}()
	if verr := VerifyFunc(m, f); verr != nil {
		return verr
	}
	where := func(b *Block, in *Instr) string {
		return "@" + f.Name + ":" + b.Name + ": " + formatInstrSafe(in)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if msg := checkInstrTypes(m, f, in); msg != "" {
				return &VerifyError{where(b, in), msg}
			}
		}
	}
	if dom == nil || dom.Func() != f {
		dom = NewDomTree(f)
	}
	return checkDominance(f, dom, where)
}

// checkDominance enforces the SSA discipline over the reachable CFG: every
// instruction-result operand is dominated by its definition — same-block
// uses must follow the definition; phi operands are checked at the
// terminator of their incoming edge's predecessor. Parameters, constants,
// and globals dominate everything. Uses inside unreachable blocks are
// exempt (the code cannot execute, and optimization leaves such blocks
// behind mid-pipeline), but reachable code must never consume a value
// defined in an unreachable block.
func checkDominance(f *Func, dom *DomTree, where func(*Block, *Instr) string) error {
	type defSite struct {
		b *Block
		i int
	}
	defs := make(map[*Instr]defSite)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.HasResult() {
				defs[in] = defSite{b, i}
			}
		}
	}
	for _, b := range dom.ReachableBlocks() {
		for i, in := range b.Instrs {
			for oi, op := range in.Operands {
				di, ok := op.(*Instr)
				if !ok {
					continue // constants, params, globals dominate everything
				}
				ds := defs[di]
				if in.Op == OpPhi {
					// The value flows along the edge from Incoming[oi], so
					// the definition must dominate that predecessor's
					// terminator, not the phi itself.
					pred := in.Incoming[oi]
					if !dom.Reachable(pred) {
						continue
					}
					if !dom.Reachable(ds.b) {
						return &VerifyError{where(b, in), "phi operand " + di.Ref() + " defined in unreachable block " + ds.b.Name}
					}
					if ds.b != pred && !dom.Dominates(ds.b, pred) {
						return &VerifyError{where(b, in), fmt.Sprintf("phi operand %s (defined in %s) does not dominate incoming edge from %s", di.Ref(), ds.b.Name, pred.Name)}
					}
					continue
				}
				if !dom.Reachable(ds.b) {
					return &VerifyError{where(b, in), "operand " + di.Ref() + " defined in unreachable block " + ds.b.Name}
				}
				if ds.b == b {
					if ds.i >= i {
						return &VerifyError{where(b, in), "operand " + di.Ref() + " used before its definition in block " + b.Name}
					}
					continue
				}
				if !dom.Dominates(ds.b, b) {
					return &VerifyError{where(b, in), fmt.Sprintf("operand %s (defined in %s) does not dominate use in %s", di.Ref(), ds.b.Name, b.Name)}
				}
			}
		}
	}
	return nil
}

// scalarOf returns t as a ScalarType, or (0, false) for aggregate types.
func scalarOf(t Type) (ScalarType, bool) {
	s, ok := t.(ScalarType)
	return s, ok
}

// checkInstrTypes enforces the per-opcode operand/result type rules. It
// returns a defect description, or "" when the instruction is well-typed.
// Structural facts VerifyFunc already established (operand membership,
// branch targets, phi incoming/pred agreement, call arity and result type)
// are not re-checked here.
func checkInstrTypes(m *Module, f *Func, in *Instr) string {
	rt := in.Type()
	nop := len(in.Operands)
	switch {
	case in.Op.IsBinOp():
		if nop != 2 {
			return fmt.Sprintf("binop has %d operands, want 2", nop)
		}
		s, ok := scalarOf(rt)
		if !ok || !s.IsInteger() {
			return fmt.Sprintf("binop result type %s is not an integer", rt)
		}
		if !in.Operands[0].Type().Equal(rt) || !in.Operands[1].Type().Equal(rt) {
			return fmt.Sprintf("binop operand types (%s, %s) do not match result type %s",
				in.Operands[0].Type(), in.Operands[1].Type(), rt)
		}
	case in.Op == OpICmp:
		if nop != 2 {
			return fmt.Sprintf("icmp has %d operands, want 2", nop)
		}
		if !rt.Equal(I1) {
			return fmt.Sprintf("icmp result type %s, want i1", rt)
		}
		t0 := in.Operands[0].Type()
		if s, ok := scalarOf(t0); !ok || s == Void {
			return fmt.Sprintf("icmp operand type %s is not scalar", t0)
		}
		if !in.Operands[1].Type().Equal(t0) {
			return fmt.Sprintf("icmp operand types differ: %s vs %s", t0, in.Operands[1].Type())
		}
	case in.Op == OpSelect:
		if nop != 3 {
			return fmt.Sprintf("select has %d operands, want 3", nop)
		}
		if !in.Operands[0].Type().Equal(I1) {
			return fmt.Sprintf("select condition type %s, want i1", in.Operands[0].Type())
		}
		if !in.Operands[1].Type().Equal(rt) || !in.Operands[2].Type().Equal(rt) {
			return fmt.Sprintf("select arm types (%s, %s) do not match result type %s",
				in.Operands[1].Type(), in.Operands[2].Type(), rt)
		}
	case in.Op.IsConversion():
		if nop != 1 {
			return fmt.Sprintf("conversion has %d operands, want 1", nop)
		}
		src, sok := scalarOf(in.Operands[0].Type())
		dst, dok := scalarOf(rt)
		if !sok || !src.IsInteger() || !dok || !dst.IsInteger() {
			return fmt.Sprintf("conversion %s -> %s is not integer-to-integer", in.Operands[0].Type(), rt)
		}
		if in.Op == OpTrunc {
			if dst.Bits() >= src.Bits() {
				return fmt.Sprintf("trunc does not narrow: %s -> %s", src, dst)
			}
		} else if dst.Bits() <= src.Bits() {
			return fmt.Sprintf("%s does not widen: %s -> %s", in.Op, src, dst)
		}
	case in.Op == OpAlloca:
		if nop != 0 {
			return fmt.Sprintf("alloca has %d operands, want 0", nop)
		}
		if !rt.Equal(Ptr) {
			return fmt.Sprintf("alloca result type %s, want ptr", rt)
		}
		if in.ElemType == nil {
			return "alloca has no element type"
		}
		if in.AllocaCount < 1 {
			return fmt.Sprintf("alloca element count %d, want >= 1", in.AllocaCount)
		}
	case in.Op == OpLoad:
		if nop != 1 {
			return fmt.Sprintf("load has %d operands, want 1", nop)
		}
		if !in.Operands[0].Type().Equal(Ptr) {
			return fmt.Sprintf("load address type %s, want ptr", in.Operands[0].Type())
		}
		if s, ok := scalarOf(rt); !ok || s == Void {
			return fmt.Sprintf("load result type %s is not scalar", rt)
		}
		if in.ElemType != nil && !in.ElemType.Equal(rt) {
			return fmt.Sprintf("load element type %s does not match result type %s", in.ElemType, rt)
		}
	case in.Op == OpStore:
		if nop != 2 {
			return fmt.Sprintf("store has %d operands, want 2", nop)
		}
		if !rt.Equal(Void) {
			return fmt.Sprintf("store result type %s, want void", rt)
		}
		if !in.Operands[1].Type().Equal(Ptr) {
			return fmt.Sprintf("store address type %s, want ptr", in.Operands[1].Type())
		}
		if in.ElemType != nil && !in.ElemType.Equal(in.Operands[0].Type()) {
			return fmt.Sprintf("store element type %s does not match value type %s", in.ElemType, in.Operands[0].Type())
		}
	case in.Op == OpGEP:
		if nop != 2 {
			return fmt.Sprintf("gep has %d operands, want 2", nop)
		}
		if !rt.Equal(Ptr) {
			return fmt.Sprintf("gep result type %s, want ptr", rt)
		}
		if !in.Operands[0].Type().Equal(Ptr) {
			return fmt.Sprintf("gep base type %s, want ptr", in.Operands[0].Type())
		}
		if s, ok := scalarOf(in.Operands[1].Type()); !ok || !s.IsInteger() {
			return fmt.Sprintf("gep index type %s is not an integer", in.Operands[1].Type())
		}
	case in.Op == OpCall:
		// Arity and result type against the callee signature are VerifyFunc's;
		// the strict tier adds per-argument types when the callee resolves to
		// a function whose signature is known.
		if m != nil {
			if cf, ok := m.Lookup(in.Callee).(*Func); ok {
				for i, arg := range in.Operands {
					if i < len(cf.Sig.Params) && !arg.Type().Equal(cf.Sig.Params[i]) {
						return fmt.Sprintf("call to @%s argument %d type %s, want %s", in.Callee, i, arg.Type(), cf.Sig.Params[i])
					}
				}
			}
		}
	case in.Op == OpPhi:
		if rt.Equal(Void) {
			return "phi has void result type"
		}
		for i, op := range in.Operands {
			if !op.Type().Equal(rt) {
				return fmt.Sprintf("phi operand %d type %s does not match result type %s", i, op.Type(), rt)
			}
		}
	case in.Op == OpCounterInc:
		if nop != 1 {
			return fmt.Sprintf("covinc has %d operands, want 1", nop)
		}
		if !rt.Equal(Void) {
			return fmt.Sprintf("covinc result type %s, want void", rt)
		}
		if !in.Operands[0].Type().Equal(Ptr) {
			return fmt.Sprintf("covinc counter operand type %s, want ptr", in.Operands[0].Type())
		}
	case in.Op == OpRet:
		want := f.Sig.Ret
		if want.Equal(Void) {
			if nop != 0 {
				return fmt.Sprintf("ret from void function carries %d operands", nop)
			}
		} else {
			if nop != 1 {
				return fmt.Sprintf("ret has %d operands, want 1", nop)
			}
			if !in.Operands[0].Type().Equal(want) {
				return fmt.Sprintf("ret operand type %s, want %s", in.Operands[0].Type(), want)
			}
		}
	case in.Op == OpBr:
		if nop != 0 || len(in.Targets) != 1 {
			return fmt.Sprintf("br has %d operands and %d targets, want 0 and 1", nop, len(in.Targets))
		}
	case in.Op == OpCondBr:
		if nop != 1 || len(in.Targets) != 2 {
			return fmt.Sprintf("condbr has %d operands and %d targets, want 1 and 2", nop, len(in.Targets))
		}
		if !in.Operands[0].Type().Equal(I1) {
			return fmt.Sprintf("condbr condition type %s, want i1", in.Operands[0].Type())
		}
	case in.Op == OpSwitch:
		if nop != 1 {
			return fmt.Sprintf("switch has %d operands, want 1", nop)
		}
		if s, ok := scalarOf(in.Operands[0].Type()); !ok || !s.IsInteger() {
			return fmt.Sprintf("switch operand type %s is not an integer", in.Operands[0].Type())
		}
		if len(in.Targets) != len(in.Cases)+1 {
			return fmt.Sprintf("switch has %d targets for %d cases, want cases+1 (default last)", len(in.Targets), len(in.Cases))
		}
	case in.Op == OpUnreachable:
		if nop != 0 || len(in.Targets) != 0 {
			return fmt.Sprintf("unreachable has %d operands and %d targets, want none", nop, len(in.Targets))
		}
	default:
		return fmt.Sprintf("unknown opcode %s", in.Op)
	}
	return ""
}
