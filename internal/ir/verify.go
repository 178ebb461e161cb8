package ir

import (
	"fmt"
)

// VerifyError describes a structural defect found by Verify.
type VerifyError struct {
	Where string
	Msg   string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("ir verify: %s: %s", e.Where, e.Msg)
}

// formatInstrSafe renders an instruction for a verifier message. The printer
// assumes well-formed instructions (it indexes operands positionally), but
// verifier messages are exactly where malformed ones show up, so a print
// panic degrades to the bare opcode instead of masking the real defect.
func formatInstrSafe(in *Instr) (s string) {
	defer func() {
		if recover() != nil {
			s = in.Op.String() + " <malformed>"
		}
	}()
	return FormatInstr(in)
}

// Verify checks module-level structural invariants:
//   - every defined function body is well-formed (see VerifyFunc);
//   - every call target and global reference resolves to a module symbol;
//   - aliases target defined symbols in the same module (the innate
//     constraint from §2.3);
//   - linkage is sane (declarations are external).
func Verify(m *Module) error {
	if err := VerifySymbols(m); err != nil {
		return err
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		if err := VerifyFunc(m, f); err != nil {
			return err
		}
	}
	return nil
}

// VerifySymbols checks the module-level invariants of Verify without
// descending into function bodies: alias targets, global shapes, linkage
// sanity, and symbol-name uniqueness across Funcs/Globals/Aliases. The
// engine's cached boundary tier uses it so per-function work can be skipped
// for functions whose content hash was already verified clean.
func VerifySymbols(m *Module) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &VerifyError{"module " + m.Name, fmt.Sprintf("malformed IR crashed the verifier: %v", r)}
		}
	}()
	// Duplicate names across the symbol slices: Lookup resolves through the
	// registration map and silently shadows a slice-level duplicate, which
	// can mask two definitions of one symbol — reject them here.
	names := make(map[string]string, len(m.Funcs)+len(m.Globals)+len(m.Aliases))
	dup := func(kind, name string) *VerifyError {
		if prev, ok := names[name]; ok {
			return &VerifyError{kind + " @" + name, "duplicate symbol name (already defined as " + prev + ")"}
		}
		names[name] = kind
		return nil
	}
	for _, f := range m.Funcs {
		if e := dup("func", f.Name); e != nil {
			return e
		}
	}
	for _, g := range m.Globals {
		if e := dup("global", g.Name); e != nil {
			return e
		}
	}
	for _, a := range m.Aliases {
		if e := dup("alias", a.Name); e != nil {
			return e
		}
	}
	for _, a := range m.Aliases {
		tgt := m.Lookup(a.Target)
		if tgt == nil {
			return &VerifyError{"alias @" + a.Name, "aliasee @" + a.Target + " not in module"}
		}
		if tgt.IsDecl() {
			return &VerifyError{"alias @" + a.Name, "aliasee @" + a.Target + " is a declaration; aliasee must be defined (relocations cannot be applied to symbols)"}
		}
	}
	for _, g := range m.Globals {
		if g.Decl && g.Linkage == Internal {
			return &VerifyError{"global @" + g.Name, "declaration cannot be internal"}
		}
		if !g.Decl && g.Init != nil && int64(len(g.Init)) != g.Elem.Size() {
			return &VerifyError{"global @" + g.Name, fmt.Sprintf("init size %d != type size %d", len(g.Init), g.Elem.Size())}
		}
	}
	for _, f := range m.Funcs {
		if f.IsDecl() && f.Linkage == Internal {
			return &VerifyError{"func @" + f.Name, "declaration cannot be internal"}
		}
	}
	return nil
}

// VerifyFunc checks the body of one function:
//   - each block ends in exactly one terminator and has no terminator
//     mid-block;
//   - phis appear only at block heads and cover each predecessor exactly
//     once;
//   - every operand is defined in the function (params, instructions of the
//     same function) or is a constant or module symbol;
//   - branch targets belong to the function;
//   - calls resolve within the module and argument counts match when the
//     callee signature is known.
func VerifyFunc(m *Module, f *Func) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// Malformed IR (nil operands, dangling pointers) must surface as
			// a *VerifyError, never crash the process that is trying to
			// diagnose it.
			err = &VerifyError{"@" + f.Name, fmt.Sprintf("malformed IR crashed the verifier: %v", r)}
		}
	}()
	where := func(b *Block, in *Instr) string {
		s := "@" + f.Name + ":" + b.Name
		if in != nil {
			s += ": " + formatInstrSafe(in)
		}
		return s
	}
	if len(f.Blocks) == 0 {
		return &VerifyError{"@" + f.Name, "defined function has no blocks"}
	}
	blockSet := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		blockSet[b] = true
	}
	defined := make(map[Value]bool)
	for _, p := range f.Params {
		defined[p] = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				defined[in] = true
			}
		}
	}
	preds := f.Preds()
	for _, b := range f.Blocks {
		if b.Parent != f {
			return &VerifyError{where(b, nil), "block parent pointer is wrong"}
		}
		if len(b.Instrs) == 0 {
			return &VerifyError{where(b, nil), "empty block"}
		}
		for i, in := range b.Instrs {
			if in.Parent != b {
				return &VerifyError{where(b, in), "instruction parent pointer is wrong"}
			}
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return &VerifyError{where(b, in), "block does not end in terminator"}
				}
				return &VerifyError{where(b, in), "terminator in middle of block"}
			}
			if in.Op == OpPhi {
				// Phis must be leading.
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					return &VerifyError{where(b, in), "phi after non-phi"}
				}
				if len(in.Operands) != len(in.Incoming) {
					return &VerifyError{where(b, in), "phi operand/incoming mismatch"}
				}
				pb := preds[b]
				if len(in.Incoming) != len(pb) {
					return &VerifyError{where(b, in), fmt.Sprintf("phi has %d incoming, block has %d preds", len(in.Incoming), len(pb))}
				}
				seen := map[*Block]bool{}
				for _, ib := range in.Incoming {
					if seen[ib] {
						return &VerifyError{where(b, in), "duplicate phi incoming block " + ib.Name}
					}
					seen[ib] = true
					found := false
					for _, p := range pb {
						if p == ib {
							found = true
							break
						}
					}
					if !found {
						return &VerifyError{where(b, in), "phi incoming " + ib.Name + " is not a predecessor"}
					}
				}
			}
			for _, t := range in.Targets {
				if !blockSet[t] {
					return &VerifyError{where(b, in), "branch target " + t.Name + " not in function"}
				}
			}
			for _, op := range in.Operands {
				switch v := op.(type) {
				case *ConstInt:
				case *Param, *Instr:
					if !defined[op] {
						return &VerifyError{where(b, in), "operand " + op.Ref() + " not defined in function"}
					}
				case Global:
					if m != nil && m.Lookup(v.GlobalName()) == nil {
						return &VerifyError{where(b, in), "operand @" + v.GlobalName() + " not in module"}
					}
					if m != nil && m.Lookup(v.GlobalName()) != v {
						return &VerifyError{where(b, in), "operand @" + v.GlobalName() + " is a foreign module's symbol object"}
					}
				default:
					return &VerifyError{where(b, in), fmt.Sprintf("operand of unknown kind %T", op)}
				}
			}
			if in.Op == OpCall && m != nil {
				callee := m.Lookup(in.Callee)
				if callee == nil {
					return &VerifyError{where(b, in), "call target @" + in.Callee + " not in module"}
				}
				if cf, ok := callee.(*Func); ok {
					if len(cf.Sig.Params) != len(in.Operands) {
						return &VerifyError{where(b, in), fmt.Sprintf("call to @%s with %d args, want %d", in.Callee, len(in.Operands), len(cf.Sig.Params))}
					}
					if !cf.Sig.Ret.Equal(in.Type()) {
						return &VerifyError{where(b, in), fmt.Sprintf("call to @%s result type %s, want %s", in.Callee, in.Type(), cf.Sig.Ret)}
					}
				}
			}
			if in.Op.IsBinOp() {
				if len(in.Operands) != 2 {
					return &VerifyError{where(b, in), fmt.Sprintf("binop has %d operands, want 2", len(in.Operands))}
				}
				if !in.Operands[0].Type().Equal(in.Operands[1].Type()) {
					return &VerifyError{where(b, in), "binop operand type mismatch"}
				}
			}
		}
	}
	return nil
}

// MustVerify panics if the module fails verification. Intended for tests and
// internal pipeline assertions.
func MustVerify(m *Module) {
	if err := Verify(m); err != nil {
		panic(err.Error() + "\n" + Print(m))
	}
}
