package opt

import "odin/internal/ir"

// DeadArgElim removes unused parameters from internal functions and the
// corresponding arguments from every call site, the paper's Figure 4 example
// of an interprocedural optimization that changes a symbol's type and ABI.
// It only fires when every caller is visible and modifiable: the function
// must have internal linkage, must not be address-taken, and must not be the
// target of an alias. Removing the parameter from the callee but not a
// caller would unbalance the ABI — which is why the partitioner must bond
// the pair (§2.3).
type DeadArgElim struct{}

// Name implements Pass.
func (DeadArgElim) Name() string { return "deadargelim" }

// Run implements Pass.
func (DeadArgElim) Run(m *ir.Module, o *Options) bool {
	aliasTargets := map[string]bool{}
	for _, a := range m.Aliases {
		aliasTargets[a.Target] = true
	}
	addressTaken := map[string]bool{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, op := range in.Operands {
					if g, ok := op.(*ir.Func); ok {
						addressTaken[g.Name] = true
					}
				}
			}
		}
	}

	changed := false
	for _, f := range m.Funcs {
		if f.IsDecl() || f.Linkage != ir.Internal || len(f.Params) == 0 {
			continue
		}
		if aliasTargets[f.Name] || addressTaken[f.Name] {
			continue
		}
		dead := deadParams(f)
		if len(dead) == 0 {
			continue
		}
		// Collect all call sites; all are visible because linkage is
		// internal and the address is never taken.
		type site struct{ in *ir.Instr }
		var sites []site
		var callers []string
		seenCaller := map[string]bool{}
		for _, g := range m.Funcs {
			for _, b := range g.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpCall && in.Callee == f.Name {
						sites = append(sites, site{in})
						if !seenCaller[g.Name] {
							seenCaller[g.Name] = true
							callers = append(callers, g.Name)
						}
					}
				}
			}
		}
		if o != nil {
			for _, c := range callers {
				o.Report.AddBond(f.Name, c)
			}
		}
		// Rewrite the signature.
		var keptParams []*ir.Param
		var keptTypes []ir.Type
		for i, p := range f.Params {
			if dead[i] {
				continue
			}
			p.Index = len(keptParams)
			keptParams = append(keptParams, p)
			keptTypes = append(keptTypes, f.Sig.Params[i])
		}
		f.Params = keptParams
		f.Sig = &ir.FuncType{Params: keptTypes, Ret: f.Sig.Ret}
		// Rewrite every call site in lockstep.
		for _, s := range sites {
			var kept []ir.Value
			for i, a := range s.in.Operands {
				if !dead[i] {
					kept = append(kept, a)
				}
			}
			s.in.Operands = kept
		}
		changed = true
	}
	return changed
}

// deadParams returns the set of parameter indices with no uses in f's body.
func deadParams(f *ir.Func) map[int]bool {
	used := map[ir.Value]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, op := range in.Operands {
				used[op] = true
			}
		}
	}
	dead := map[int]bool{}
	for i, p := range f.Params {
		if !used[p] {
			dead[i] = true
		}
	}
	return dead
}
