package core

// Function-granular compile caching (ROADMAP item 4). The fragment cache
// skips the middle and back end only when the WHOLE fragment's
// post-instrumentation IR is unchanged; a one-probe toggle inside a
// 50-function fragment still recompiles all 50. This file drops the unit of
// redundant work to the function: per-symbol streaming fingerprints
// (ir.FingerprintSym) identify exactly which member functions changed, a
// reduced fragment module is compiled containing only those functions plus
// the definitions interprocedural passes need to see, and the cached machine
// code of untouched functions is spliced into the resulting object.
//
// The splice invariant — a spliced object is byte-identical to a cold
// whole-fragment compile — rests on three mechanisms:
//
//  1. Deep hashes. A function's cached code depends on every definition the
//     optimizer could read while compiling it: inline callees, DAE'd callees
//     whose call sites get rewritten, copy-on-use constants. A function is
//     clean only when the fold of part hashes over its reference closure
//     (restricted to the fragment's defined symbols) is unchanged.
//  2. Reduced-module equivalence. Dirty functions are compiled in a module
//     that also defines their reference closure (so inlining and DAE see the
//     same bodies), in the same member order (pass iteration order is
//     preserved), with opt.Options.KeepArgs carrying the whole-fragment
//     address-taken/alias-target set (DAE's gating is module-wide) and
//     GlobalDCE skipped (liveness is decided object-level below).
//  3. Object-level sweep. GlobalDCE on the whole fragment removes exactly
//     the internal symbols unreachable from external symbols and aliases;
//     since the code generator emits a Call/Lea relocation for every
//     call/global operand, the same liveness is computable on the spliced
//     object by mark-sweep over relocations, applied when the fragment
//     optimizes at a level that runs GlobalDCE.
//
// Two deliberate approximations: 64-bit fingerprint collisions (shared with
// the fragment cache), and the inliner's per-run module-wide budget — a
// fragment performing 512+ inlines in one pass run could diverge between the
// reduced and whole-module compiles; real fragments are orders of magnitude
// below it. Any splice-path failure (opt error, injected codegen:<func>
// fault, validation) falls back to the whole-fragment ladder, never a
// corrupt splice.

import (
	"sort"

	"odin/internal/ir"
	"odin/internal/mir"
	"odin/internal/obj"
	"odin/internal/telemetry"
)

// tempHashes maps every symbol defined in a rebuild's temporary IR to its
// streaming content fingerprint. It is computed once per rebuild (serially,
// before the compile pool fans out) and read concurrently by workers.
type tempHashes map[string]uint64

// computeTempHashes fingerprints every defined symbol of the instrumented
// temporary module.
func computeTempHashes(temp *ir.Module) tempHashes {
	th := make(tempHashes, len(temp.Funcs)+len(temp.Globals)+len(temp.Aliases))
	for _, g := range temp.Globals {
		if !g.Decl {
			th[g.Name] = ir.FingerprintSym(g)
		}
	}
	for _, a := range temp.Aliases {
		th[a.Name] = ir.FingerprintSym(a)
	}
	for _, f := range temp.Funcs {
		if !f.IsDecl() {
			th[f.Name] = ir.FingerprintSym(f)
		}
	}
	return th
}

// fragmentHash folds the part hashes of a fragment's members and clones (in
// plan order) into the fragment-level cache key. It replaces hashing the
// materialized module's full text: the fold covers exactly the definitions
// materialize would clone, so it changes when and only when the fragment
// module would, and a fragment-level cache hit no longer pays materialize.
func fragmentHash(frag *Fragment, th tempHashes) uint64 {
	h := ir.HashSeed
	for _, s := range frag.Members {
		if v, ok := th[s]; ok {
			h = ir.HashFold(h, v)
		}
	}
	for _, s := range frag.Clones {
		if v, ok := th[s]; ok {
			h = ir.HashFold(h, v)
		}
	}
	return h
}

// fragMeta is the per-fragment function-cache metadata stored alongside the
// cached object. It exists only for objects produced by a clean compile
// (first attempt, configured level, no quarantined passes): degraded objects
// are not splice donors, so their metadata is deleted at commit.
type fragMeta struct {
	// level is the optimization level the cached object compiled at.
	level int
	// funcHashes maps each member function to the deep hash (reference-
	// closure fold) its cached code was compiled from.
	funcHashes map[string]uint64
}

// fragIndex is the per-compile view of one fragment's defined symbols in the
// temporary IR: which member/clone symbols are defined, their intra-fragment
// reference edges, and the member functions in plan order.
type fragIndex struct {
	defined map[string]bool
	refs    map[string][]string
	funcs   []string // defined member functions, member order
}

func buildFragIndex(frag *Fragment, temp *ir.Module) *fragIndex {
	idx := &fragIndex{
		defined: make(map[string]bool, len(frag.Members)+len(frag.Clones)),
		refs:    make(map[string][]string),
	}
	note := func(s string) {
		switch g := temp.Lookup(s).(type) {
		case *ir.Func:
			if !g.IsDecl() {
				idx.defined[s] = true
			}
		case *ir.GlobalVar:
			if !g.Decl {
				idx.defined[s] = true
			}
		case *ir.Alias:
			idx.defined[s] = true
		}
	}
	for _, s := range frag.Members {
		note(s)
		if f := temp.LookupFunc(s); f != nil && !f.IsDecl() {
			idx.funcs = append(idx.funcs, s)
		}
	}
	for _, s := range frag.Clones {
		note(s)
	}
	for s := range idx.defined {
		for _, r := range temp.References(s) {
			if idx.defined[r] {
				idx.refs[s] = append(idx.refs[s], r)
			}
		}
	}
	return idx
}

// deepFuncHashes computes, for every defined member function, the fold of
// part hashes over its reference closure within the fragment's defined
// symbol set — the names are sorted so the fold is order-independent. The
// closure covers everything whose definition the optimizer can read while
// compiling the function: inline callees (transitively), callees whose
// signature rewrites propagate to this function's call sites, and
// copy-on-use constants folded into its body.
func deepFuncHashes(idx *fragIndex, th tempHashes) map[string]uint64 {
	out := make(map[string]uint64, len(idx.funcs))
	seen := make(map[string]bool)
	closure := make([]string, 0, 16)
	var queue []string
	for _, fn := range idx.funcs {
		clear(seen)
		closure = closure[:0]
		queue = append(queue[:0], fn)
		seen[fn] = true
		for len(queue) > 0 {
			n := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			closure = append(closure, n)
			for _, r := range idx.refs[n] {
				if !seen[r] {
					seen[r] = true
					queue = append(queue, r)
				}
			}
		}
		sort.Strings(closure)
		h := ir.HashSeed
		for _, n := range closure {
			h = ir.HashFold(h, th[n])
		}
		out[fn] = h
	}
	return out
}

// countMemberFuncs is the cheap FuncsTotal count for paths that never build
// a fragIndex (fragment-level cache hits).
func countMemberFuncs(frag *Fragment, temp *ir.Module) int {
	n := 0
	for _, s := range frag.Members {
		if f := temp.LookupFunc(s); f != nil && !f.IsDecl() {
			n++
		}
	}
	return n
}

// keepArgsFor computes the whole-fragment set dead-argument elimination must
// skip: functions whose address is taken anywhere in the fragment's member
// bodies, plus member alias targets. A whole-fragment compile derives this
// set from the module itself; the reduced splice module omits clean sibling
// definitions and all aliases, so the set is passed in explicitly
// (opt.Options.KeepArgs) to keep DAE's decisions identical.
func (e *Engine) keepArgsFor(frag *Fragment, idx *fragIndex, temp *ir.Module) map[string]bool {
	keep := make(map[string]bool)
	for _, s := range idx.funcs {
		f := temp.LookupFunc(s)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for _, op := range in.Operands {
					if fn, ok := op.(*ir.Func); ok {
						keep[fn.Name] = true
					}
				}
			}
		}
	}
	for _, s := range frag.Members {
		if a := e.aliasByName[s]; a != nil {
			keep[a.Target] = true
		}
	}
	return keep
}

// trySplice attempts the function-granular path for a fragment whose
// fragment-level hash missed but whose cached object came from a clean
// compile at the configured level. It compiles a reduced module holding only
// the dirty functions (plus their reference closure, lowered as imports) and
// splices the result with the cached machine code of clean functions. On
// success out is fully populated and "" is returned; on any failure it
// returns the reason (FragCompile.SpliceFallbackReason) and the caller falls
// back to the whole-fragment ladder with out's timing accumulated but no
// flags set.
func (e *Engine) trySplice(out *fragOut, frag *Fragment, temp *ir.Module, th tempHashes, meta *fragMeta, cached *obj.Object, arena *ir.CloneArena, fs *telemetry.Span) string {
	idx := buildFragIndex(frag, temp)
	deep := deepFuncHashes(idx, th)

	cachedFn := make(map[string]int, len(cached.Funcs))
	for i := range cached.Funcs {
		cachedFn[cached.Funcs[i].Name] = i
	}
	need := make(map[string]bool)
	for _, fn := range idx.funcs {
		if h, ok := meta.funcHashes[fn]; !ok || h != deep[fn] {
			need[fn] = true
		} else if _, inObj := cachedFn[fn]; !inObj {
			// Clean, but the cached compile swept it as dead; the new image
			// may revive it, so compile it fresh and let the sweep decide.
			need[fn] = true
		}
	}
	if len(need) >= len(idx.funcs) {
		return "nothing-reusable" // the whole-fragment path is no slower
	}

	// Close the dirty set over intra-fragment references so interprocedural
	// passes see exactly the definitions a whole-fragment compile shows them.
	defs := make(map[string]bool, len(need)*2)
	var queue []string
	for fn := range need {
		defs[fn] = true
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, r := range idx.refs[n] {
			if !defs[r] {
				defs[r] = true
				queue = append(queue, r)
			}
		}
	}
	// Closure functions that are not dirty are visible to the optimizer but
	// lowered as imports; their cached code is spliced below.
	omit := make(map[string]bool)
	for _, fn := range idx.funcs {
		if defs[fn] && !need[fn] {
			omit[fn] = true
		}
	}

	fm, err := e.materializeIsolated(frag, temp, defs, arena, &out.fc, fs)
	if err != nil {
		return StageMaterialize
	}
	ro, ferr := e.compileAttempt(frag.ID, fm, attemptSpec{
		level:         meta.level,
		skipGlobalDCE: true,
		keepArgs:      e.keepArgsFor(frag, idx, temp),
		omitFuncs:     omit,
	}, &out.fc, fs)
	if ferr != nil {
		if ferr.Pass != "" {
			return ferr.Stage + ":" + ferr.Pass
		}
		return ferr.Stage
	}
	so, class := e.spliceObject(frag, idx, cached, cachedFn, ro, need, meta.level)
	if class != "" {
		return "splice:" + class
	}
	out.obj = so
	out.fc.Spliced = true
	out.fc.Attempts = 1
	out.fc.Level = meta.level
	out.fc.Instrs = so.CodeSize()
	out.fc.FuncsCompiled = len(need)
	out.fc.FuncCacheHits = len(idx.funcs) - len(need)
	out.meta = &fragMeta{level: meta.level, funcHashes: deep}
	return ""
}

// spliceObject assembles the fragment object from the reduced compile:
// freshly generated FuncSyms for dirty functions, cached FuncSyms for clean
// ones (member order preserved — symbol order determines image layout), the
// reduced compile's Datas wholesale (every global recompiles; byte copies
// are cheap) plus the data symbols the optimizer synthesised for cached
// functions (carrySynthDatas), and AliasSyms rebuilt from the plan. When
// the fragment optimizes at a level that runs GlobalDCE, an object-level
// mark-sweep applies the equivalent liveness. The result must validate; any
// irregularity aborts the splice — the second result names which, "" for
// none — rather than committing a corrupt object.
func (e *Engine) spliceObject(frag *Fragment, idx *fragIndex, cached *obj.Object, cachedFn map[string]int, ro *obj.Object, need map[string]bool, level int) (*obj.Object, string) {
	so := &obj.Object{Name: ro.Name, Datas: ro.Datas}
	carried := carrySynthDatas(so, idx, cached)
	freshFn := make(map[string]int, len(ro.Funcs))
	for i := range ro.Funcs {
		freshFn[ro.Funcs[i].Name] = i
	}
	for _, fn := range idx.funcs {
		if i, ok := freshFn[fn]; ok {
			so.Funcs = append(so.Funcs, ro.Funcs[i])
		} else if i, ok := cachedFn[fn]; ok && !need[fn] {
			so.Funcs = append(so.Funcs, cached.Funcs[i])
		} else if need[fn] {
			return nil, "lost-func" // the reduced compile dropped a dirty function
		}
		// Absent from both: swept by the cached compile and still dead.
	}
	for _, s := range frag.Members {
		if a := e.aliasByName[s]; a != nil {
			lk := mir.Global
			if !e.Plan.Exported[s] {
				lk = mir.Local
			}
			so.Aliases = append(so.Aliases, obj.AliasSym{Name: s, Target: a.Target, Linkage: lk})
		}
	}
	if level >= 2 {
		sweepObject(so)
	}
	if !orderSynthDatas(so, idx, cached, carried) {
		return nil, "synth-data-order"
	}
	recomputeImports(so)
	if so.Validate() != nil {
		return nil, "validate"
	}
	return so, ""
}

// Synthesised data symbols are the ones the optimizer adds to a fragment
// module (instcombine's printf-to-puts rewrite makes <g>.puts from <g>): they
// are defined in the object but are no member or clone of the fragment. The
// reduced compile makes them only for the functions it defines, so a cached
// function outside the dirty closure would keep a relocation to a string
// nobody defines — the link failed on "msg1.puts". carrySynthDatas appends
// the cached object's synthesised datas that the reduced compile did not
// make to so, for the sweep to judge like any other symbol, and returns
// their names.
func carrySynthDatas(so *obj.Object, idx *fragIndex, cached *obj.Object) map[string]bool {
	fresh := make(map[string]bool, len(so.Datas))
	for i := range so.Datas {
		fresh[so.Datas[i].Name] = true
	}
	var carried map[string]bool
	for _, d := range cached.Datas {
		if !idx.defined[d.Name] && !fresh[d.Name] {
			if carried == nil {
				carried = make(map[string]bool)
			}
			carried[d.Name] = true
			so.Datas = append(so.Datas, d)
		}
	}
	return carried
}

// orderSynthDatas puts so's synthesised datas in cold-compile order. The
// optimizer creates them on its first instcombine run, walking the member
// functions in plan order, before any pass can move or remove a call: their
// order is a property of the fragment, not of the probe set, so the cached
// object — a cold compile, or a splice ordered by this function — holds its
// share of them in that order. With nothing carried over, the reduced
// compile's own order stands. With a survivor the cached object never held
// next to a carried one, their relative order is unknown: it reports false
// and the splice is abandoned for the whole-fragment ladder.
func orderSynthDatas(so *obj.Object, idx *fragIndex, cached *obj.Object, carried map[string]bool) bool {
	if len(carried) == 0 {
		return true
	}
	pos := make(map[string]int, len(cached.Datas))
	for i := range cached.Datas {
		pos[cached.Datas[i].Name] = i
	}
	var slots []int
	var synth []obj.DataSym
	anyCarried, allKnown := false, true
	for i, d := range so.Datas {
		if idx.defined[d.Name] {
			continue
		}
		anyCarried = anyCarried || carried[d.Name]
		if _, ok := pos[d.Name]; !ok {
			allKnown = false
		}
		slots = append(slots, i)
		synth = append(synth, d)
	}
	if !anyCarried {
		return true // the sweep removed them all
	}
	if !allKnown {
		return false
	}
	sort.Slice(synth, func(a, b int) bool { return pos[synth[a].Name] < pos[synth[b].Name] })
	for k, i := range slots {
		so.Datas[i] = synth[k]
	}
	return true
}

// sweepObject is GlobalDCE at the object level: roots are externally linked
// functions/datas and every alias (with its target); edges are Call/Lea
// relocations, which the code generator emits for every call and global
// operand. Unmarked symbols are removed order-preservingly — exactly the
// set a whole-fragment GlobalDCE run would have kept out of the object.
func sweepObject(o *obj.Object) {
	fnIdx := make(map[string]int, len(o.Funcs))
	for i := range o.Funcs {
		fnIdx[o.Funcs[i].Name] = i
	}
	marked := make(map[string]bool)
	var queue []string
	push := func(n string) {
		if !marked[n] {
			marked[n] = true
			queue = append(queue, n)
		}
	}
	for i := range o.Funcs {
		if o.Funcs[i].Linkage == mir.Global {
			push(o.Funcs[i].Name)
		}
	}
	for i := range o.Datas {
		if o.Datas[i].Linkage == mir.Global {
			push(o.Datas[i].Name)
		}
	}
	for _, a := range o.Aliases {
		marked[a.Name] = true
		push(a.Target)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		i, ok := fnIdx[n]
		if !ok {
			continue // data, alias, or external: no outgoing edges
		}
		for _, in := range o.Funcs[i].Code {
			if (in.Op == mir.Call || in.Op == mir.Lea) && in.Sym != "" {
				push(in.Sym)
			}
		}
	}
	funcs := o.Funcs[:0]
	for i := range o.Funcs {
		if marked[o.Funcs[i].Name] {
			funcs = append(funcs, o.Funcs[i])
		}
	}
	o.Funcs = funcs
	datas := o.Datas[:0]
	for i := range o.Datas {
		if marked[o.Datas[i].Name] {
			datas = append(datas, o.Datas[i])
		}
	}
	o.Datas = datas
}

// recomputeImports rebuilds the object's import list from its relocations:
// every referenced symbol not defined in the object, sorted. The linker
// resolves symbols by name and never consults Imports, but the list is kept
// accurate for introspection and object diffing.
func recomputeImports(o *obj.Object) {
	defined := make(map[string]bool)
	for _, n := range o.DefinedNames() {
		defined[n] = true
	}
	imp := make(map[string]bool)
	for i := range o.Funcs {
		for _, in := range o.Funcs[i].Code {
			if (in.Op == mir.Call || in.Op == mir.Lea) && in.Sym != "" && !defined[in.Sym] {
				imp[in.Sym] = true
			}
		}
	}
	o.Imports = o.Imports[:0]
	for n := range imp {
		o.Imports = append(o.Imports, n)
	}
	sort.Strings(o.Imports)
}
