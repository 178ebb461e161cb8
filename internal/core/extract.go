package core

import (
	"fmt"

	"odin/internal/ir"
)

// materialize builds the compilable module for one fragment (the "Split"
// stage of Figure 7): member definitions are cloned from the instrumented
// temporary IR, copy-on-use symbols are cloned locally as internal symbols,
// and everything else referenced becomes an import declaration. Symbol
// visibility follows the plan's internalization decision (§3.2 step 4). All
// cloning draws from arena (nil falls back to the heap).
func (e *Engine) materialize(frag *Fragment, temp *ir.Module, arena *ir.CloneArena) (*ir.Module, error) {
	fm := ir.NewModule(fmt.Sprintf("%s.frag%d", e.Pristine.Name, frag.ID))
	vmap := arena.ValueMap()
	linkFor := func(name string) ir.Linkage {
		if e.Plan.Exported[name] {
			return ir.External
		}
		return ir.Internal
	}

	// Member and copy-on-use globals first, so function cloning remaps
	// operands onto the fragment's own objects.
	for _, s := range frag.Members {
		if g := temp.LookupGlobal(s); g != nil && !g.Decl {
			ng := ir.CloneGlobalInto(fm, g, s)
			ng.Linkage = linkFor(s)
			vmap.Values[g] = ng
		}
	}
	for _, s := range frag.Clones {
		g := temp.LookupGlobal(s)
		if g == nil || g.Decl {
			return nil, fmt.Errorf("copy-on-use symbol @%s not materializable", s)
		}
		ng := ir.CloneGlobalInto(fm, g, s)
		// Cloned symbols are marked internal to prevent conflicts at
		// link time (§3.2 step 2).
		ng.Linkage = ir.Internal
		vmap.Values[g] = ng
	}

	// Member functions, cloned from the instrumented temporary IR.
	var fns []*ir.Func
	for _, s := range frag.Members {
		f := temp.LookupFunc(s)
		if f == nil || f.IsDecl() {
			continue
		}
		nf := ir.CloneFuncInto(nil, f, s, vmap)
		nf.Linkage = linkFor(s)
		fns = append(fns, nf)
		vmap.Values[f] = nf
	}
	for _, nf := range fns {
		fm.AddFunc(nf)
	}
	// Second remap pass for operands referencing symbols cloned later.
	for _, f := range fm.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, op := range in.Operands {
					in.Operands[i] = vmap.MapValue(op)
				}
			}
		}
	}

	// Member aliases, via the engine's prebuilt name→alias index. The
	// aliasee is a member of the same fragment by the innate clustering, so
	// the alias remains definable.
	for _, s := range frag.Members {
		if a := e.aliasByName[s]; a != nil {
			fm.AddAlias(&ir.Alias{Name: s, Target: a.Target, Linkage: linkFor(s)})
		}
	}

	if err := addMissingDecls(fm, temp, e.Pristine); err != nil {
		return nil, err
	}
	return fm, nil
}

// addMissingDecls walks the module and creates import declarations for every
// referenced symbol not defined locally, substituting operand objects so the
// module is self-contained ("Importing a missing symbol ensures IR
// correctness at recompilation time", §3.2 step 3). Symbol kinds and
// signatures are resolved from the source modules in order.
func addMissingDecls(m *ir.Module, sources ...*ir.Module) error {
	lookupSrc := func(name string) ir.Global {
		for _, src := range sources {
			if src == nil {
				continue
			}
			if g := src.Lookup(name); g != nil {
				return g
			}
		}
		return nil
	}
	// resolveFuncSig follows alias chains to find a callable signature.
	resolveFuncSig := func(name string) (*ir.FuncType, bool) {
		for i := 0; i < 16; i++ {
			g := lookupSrc(name)
			switch s := g.(type) {
			case *ir.Func:
				return s.Sig, true
			case *ir.Alias:
				name = s.Target
				continue
			}
			return nil, false
		}
		return nil, false
	}
	declare := func(name string) (ir.Global, error) {
		src := lookupSrc(name)
		switch s := src.(type) {
		case *ir.Func:
			return ir.NewDecl(m, name, s.Sig), nil
		case *ir.GlobalVar:
			g := &ir.GlobalVar{Name: name, Elem: s.Elem, Const: s.Const, Decl: true}
			m.AddGlobal(g)
			return g, nil
		case *ir.Alias:
			// Import an alias as a declaration of its target's kind
			// under the alias's name.
			if sig, ok := resolveFuncSig(name); ok {
				return ir.NewDecl(m, name, sig), nil
			}
			g := &ir.GlobalVar{Name: name, Elem: ir.I64, Decl: true}
			m.AddGlobal(g)
			return g, nil
		}
		return nil, fmt.Errorf("core: cannot declare unknown symbol @%s", name)
	}

	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && m.Lookup(in.Callee) == nil {
					if sig, ok := resolveFuncSig(in.Callee); ok {
						ir.NewDecl(m, in.Callee, sig)
					} else {
						return fmt.Errorf("core: call to unknown symbol @%s in @%s", in.Callee, f.Name)
					}
				}
				for i, op := range in.Operands {
					g, ok := op.(ir.Global)
					if !ok {
						continue
					}
					name := g.GlobalName()
					cur := m.Lookup(name)
					if cur == nil {
						var err error
						cur, err = declare(name)
						if err != nil {
							return err
						}
					}
					if cur != op {
						in.Operands[i] = cur
					}
				}
			}
		}
	}
	return nil
}
