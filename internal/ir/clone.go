package ir

// ValueMap records the correspondence between original and cloned IR
// objects. It is the mechanism behind Odin's Sched.Map: probes hold
// references into the pristine module and are translated into the temporary
// recompilation module through this map (§4).
type ValueMap struct {
	Values map[Value]Value
	Blocks map[*Block]*Block
	Funcs  map[*Func]*Func

	// arena, when non-nil, supplies slab-backed scratch for cloned
	// instructions, operands, blocks, and constants (see CloneArena). The
	// zero value (nil) clones onto the heap.
	arena *CloneArena
}

// NewValueMap returns an empty map.
func NewValueMap() *ValueMap {
	return &ValueMap{
		Values: make(map[Value]Value),
		Blocks: make(map[*Block]*Block),
		Funcs:  make(map[*Func]*Func),
	}
}

// MapValue translates an original value to its clone. Constants are
// translated structurally. Unmapped values are returned unchanged, which
// handles globals resolved by name in the destination module.
func (vm *ValueMap) MapValue(v Value) Value {
	if v == nil {
		return nil
	}
	if nv, ok := vm.Values[v]; ok {
		return nv
	}
	if c, ok := v.(*ConstInt); ok {
		nc := vm.arena.newConst()
		*nc = ConstInt{Val: c.Val, Typ: c.Typ}
		return nc
	}
	return v
}

// MapBlock translates an original block to its clone (nil-safe).
func (vm *ValueMap) MapBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	if nb, ok := vm.Blocks[b]; ok {
		return nb
	}
	return b
}

// CloneInstr returns a deep copy of in with operands remapped through vmap.
func CloneInstr(in *Instr, vmap *ValueMap) *Instr {
	ni := vmap.arena.newInstr()
	cloneInstrInto(ni, in, vmap)
	return ni
}

// cloneInstrInto fills ni in place with a deep copy of in, operands
// remapped through vmap. Assigning the complete struct first means ni may
// be an uninitialized arena slot or a pre-registered placeholder (see
// CloneFuncInto) — every field is overwritten either way.
func cloneInstrInto(ni, in *Instr, vmap *ValueMap) {
	*ni = Instr{
		Op: in.Op, Typ: in.Typ, Name: in.Name,
		Pred: in.Pred, Callee: in.Callee, Scale: in.Scale,
		AllocaCount: in.AllocaCount, ElemType: in.ElemType,
	}
	if in.Operands != nil {
		ni.Operands = vmap.arena.valueSlice(len(in.Operands))
		for i, op := range in.Operands {
			ni.Operands[i] = vmap.MapValue(op)
		}
	}
	if in.Targets != nil {
		ni.Targets = vmap.arena.blockSlice(len(in.Targets))
		for i, t := range in.Targets {
			ni.Targets[i] = vmap.MapBlock(t)
		}
	}
	if in.Cases != nil {
		ni.Cases = append([]int64(nil), in.Cases...)
	}
	if in.Incoming != nil {
		ni.Incoming = vmap.arena.blockSlice(len(in.Incoming))
		for i, b := range in.Incoming {
			ni.Incoming[i] = vmap.MapBlock(b)
		}
	}
}

// CloneFuncInto deep-copies function f (which may be a declaration) into
// module dst under the given name, recording all correspondences in vmap.
// References to global symbols keep their names; they are re-resolved
// against dst lazily by name.
func CloneFuncInto(dst *Module, f *Func, name string, vmap *ValueMap) *Func {
	nf := &Func{
		Name:     name,
		Sig:      &FuncType{Params: append([]Type(nil), f.Sig.Params...), Ret: f.Sig.Ret},
		Linkage:  f.Linkage,
		NoInline: f.NoInline,
		Comdat:   f.Comdat,
	}
	for _, p := range f.Params {
		np := vmap.arena.newParam()
		*np = Param{Nam: p.Nam, Typ: p.Typ, Index: p.Index}
		nf.Params = append(nf.Params, np)
		vmap.Values[p] = np
	}
	vmap.Funcs[f] = nf
	// First pass: create empty blocks so branch targets can be remapped.
	for _, b := range f.Blocks {
		nb := vmap.arena.newBlock()
		*nb = Block{Name: b.Name, Parent: nf}
		nf.Blocks = append(nf.Blocks, nb)
		vmap.Blocks[b] = nb
	}
	// Second pass: clone instructions. Instruction results may be used
	// before definition order within phis, so pre-register result values.
	// The placeholder IS the final clone — cloneInstrInto fills it in place
	// below, so no throwaway instruction is allocated per result.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				ni := vmap.arena.newInstr()
				*ni = Instr{Op: in.Op, Typ: in.Typ, Name: in.Name}
				vmap.Values[in] = ni
			}
		}
	}
	for bi, b := range f.Blocks {
		nb := nf.Blocks[bi]
		nb.Instrs = vmap.arena.instrSlice(len(b.Instrs))
		for _, in := range b.Instrs {
			var ni *Instr
			if in.HasResult() {
				ni = vmap.Values[in].(*Instr)
				cloneInstrInto(ni, in, vmap)
			} else {
				ni = vmap.arena.newInstr()
				cloneInstrInto(ni, in, vmap)
			}
			nb.Append(ni)
		}
	}
	nf.nameCounter = f.nameCounter
	if dst != nil {
		dst.AddFunc(nf)
	}
	return nf
}

// CloneGlobalInto copies global variable g into dst under the given name.
func CloneGlobalInto(dst *Module, g *GlobalVar, name string) *GlobalVar {
	ng := &GlobalVar{
		Name: name, Elem: g.Elem, Linkage: g.Linkage,
		Const: g.Const, Decl: g.Decl,
	}
	if g.Init != nil {
		ng.Init = append([]byte(nil), g.Init...)
	}
	if dst != nil {
		dst.AddGlobal(ng)
	}
	return ng
}

// CloneModule returns a deep copy of m plus the value map relating original
// objects to their clones. Global operand references are rewritten to the
// cloned symbols.
func CloneModule(m *Module) (*Module, *ValueMap) {
	nm := NewModule(m.Name)
	vmap := NewValueMap()
	// Clone globals first so function bodies can reference them.
	for _, g := range m.Globals {
		ng := CloneGlobalInto(nm, g, g.Name)
		vmap.Values[g] = ng
	}
	// Pre-create function symbols so call-by-name is resolvable and
	// function-as-value operands can be remapped.
	for _, f := range m.Funcs {
		CloneFuncInto(nil, f, f.Name, vmap)
	}
	for _, f := range m.Funcs {
		nm.AddFunc(vmap.Funcs[f])
		vmap.Values[f] = vmap.Funcs[f]
	}
	// Re-run operand remapping for global/function operands that were
	// cloned after some bodies: rewrite any operand still pointing at an
	// original symbol.
	for _, f := range nm.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, op := range in.Operands {
					in.Operands[i] = vmap.MapValue(op)
				}
			}
		}
	}
	for _, a := range m.Aliases {
		nm.AddAlias(&Alias{Name: a.Name, Target: a.Target, Linkage: a.Linkage})
	}
	return nm, vmap
}
