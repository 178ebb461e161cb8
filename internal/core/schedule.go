package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"odin/internal/ir"
	"odin/internal/link"
)

// Sched is one recompilation in flight (§3.3, Figure 7). It exposes the
// temporary IR, the original-to-temporary value mapping, and the minimum set
// of probes the user must (re-)apply.
type Sched struct {
	engine *Engine

	// ActiveProbes is P̃ from Algorithm 2: every active probe whose target
	// is recompiled this round — both probes the user just changed and
	// unchanged probes that live in affected fragments and must be
	// re-applied because their fragment is recompiled.
	ActiveProbes []Probe

	// Temp is the temporary IR: clones of every changed symbol. User
	// patch logic instruments this module, never the pristine IR, so
	// reverting instrumentation is free (§4).
	Temp *ir.Module

	vmap      *ir.ValueMap
	fragments []int
	// dirtyEpoch is the patch-manager epoch this schedule's dirty-symbol
	// snapshot was taken at; a successful rebuild clears marks only up to
	// it, so probe changes arriving mid-rebuild are never lost.
	dirtyEpoch uint64
	done       bool
}

// Schedule runs Algorithm 2: it detects changed probes, propagates changed
// symbols to fragments, back-propagates fragments to probes, and extracts
// the temporary IR.
func (e *Engine) Schedule() (*Sched, error) { return e.schedule(false) }

// schedule is Schedule's implementation. aliasPristine — set only by
// BuildAll, which never hands the Sched to user patch logic — permits the
// no-probes fast path that skips the extraction clone entirely.
func (e *Engine) schedule(aliasPristine bool) (*Sched, error) {
	// Lines 2-6: symbols with changed probes. The snapshot epoch makes the
	// eventual clearDirtyThrough precise under concurrent probe requests.
	dirtySyms, epoch := e.Manager.dirtySnapshot()
	changed := map[string]bool{}
	for _, s := range dirtySyms {
		changed[s] = true
	}
	// Lines 7-11: propagate to fragments (plus never-built fragments);
	// every symbol of an affected fragment is recompiled.
	frags := e.affectedFragments(sortedKeys(changed))
	extract := map[string]bool{}
	for _, id := range frags {
		f := e.Plan.Fragments[id]
		for _, s := range f.Members {
			extract[s] = true
		}
		for _, s := range f.Clones {
			extract[s] = true
		}
	}
	// Lines 12-17: back-propagate to probes. Note the paper's remark:
	// this is not repeated to convergence — it only adds unchanged
	// probes whose fragments' caches remain valid.
	sched := &Sched{engine: e, fragments: frags, dirtyEpoch: epoch}
	for _, id := range e.Manager.Active() {
		p, _ := e.Manager.Get(id)
		if extract[p.PatchTarget()] {
			sched.ActiveProbes = append(sched.ActiveProbes, p)
		}
	}
	// Line 18: extract the temporary IR. When nothing will instrument it —
	// BuildAll with no probes to (re-)apply — every downstream consumer
	// (fingerprinting, verification, materialize) only reads the temporary
	// IR, so the extraction clone is pure overhead: alias the pristine
	// module instead, with the empty value map as the identity mapping.
	// This is the dominant cost of a warm engine restart after the
	// persistent tier absorbs compilation itself.
	if aliasPristine && len(sched.ActiveProbes) == 0 {
		sched.Temp = e.Pristine
		sched.vmap = ir.NewValueMap()
		return sched, nil
	}
	temp, vmap, err := extractIR(e.Pristine, extract)
	if err != nil {
		return nil, err
	}
	sched.Temp = temp
	sched.vmap = vmap
	return sched, nil
}

// extractIR clones the symbols in set out of pristine into a fresh module,
// adding declarations for everything else they reference.
func extractIR(pristine *ir.Module, set map[string]bool) (*ir.Module, *ir.ValueMap, error) {
	temp := ir.NewModule(pristine.Name + ".tmp")
	vmap := ir.NewValueMap()
	// Globals first so function operand remapping finds them.
	for _, g := range pristine.Globals {
		if set[g.Name] && !g.Decl {
			ng := ir.CloneGlobalInto(temp, g, g.Name)
			vmap.Values[g] = ng
		}
	}
	// Pre-clone functions, then register, as CloneModule does.
	var cloned []*ir.Func
	for _, f := range pristine.Funcs {
		if set[f.Name] && !f.IsDecl() {
			nf := ir.CloneFuncInto(nil, f, f.Name, vmap)
			cloned = append(cloned, nf)
			vmap.Values[f] = nf
		}
	}
	for _, nf := range cloned {
		temp.AddFunc(nf)
	}
	// Remap any operands that referenced symbols cloned later, and add
	// declarations for references outside the set.
	for _, f := range temp.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, op := range in.Operands {
					in.Operands[i] = vmap.MapValue(op)
				}
			}
		}
	}
	for _, a := range pristine.Aliases {
		if set[a.Name] {
			temp.AddAlias(&ir.Alias{Name: a.Name, Target: a.Target, Linkage: a.Linkage})
		}
	}
	if err := addMissingDecls(temp, pristine, nil); err != nil {
		return nil, nil, err
	}
	return temp, vmap, nil
}

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

// Map translates a value of the pristine module (a probe's stored reference)
// into the corresponding value of the temporary IR.
func (s *Sched) Map(v ir.Value) ir.Value { return s.vmap.MapValue(v) }

// MapBlock translates a pristine basic block into its temporary-IR clone,
// or nil when the block's function is not part of this recompilation.
func (s *Sched) MapBlock(b *ir.Block) *ir.Block {
	nb := s.vmap.MapBlock(b)
	if nb == b {
		return nil
	}
	return nb
}

// MapFunc translates a pristine function to its temporary-IR clone, or nil.
func (s *Sched) MapFunc(name string) *ir.Func {
	f := s.Temp.LookupFunc(name)
	if f == nil || f.IsDecl() {
		return nil
	}
	return f
}

// LookupFunction returns (creating if needed) a declaration of a runtime
// function in the temporary IR, for patch logic to call.
func (s *Sched) LookupFunction(name string, sig *ir.FuncType) *ir.Func {
	if f := s.Temp.LookupFunc(name); f != nil {
		return f
	}
	return ir.NewDecl(s.Temp, name, sig)
}

// Fragments returns the IDs of the fragments this schedule recompiles.
func (s *Sched) Fragments() []int { return s.fragments }

// Rebuild applies self-applying probes, splits the instrumented temporary
// IR back into fragments, re-optimizes and re-generates code for each, and
// relinks the machine-code cache into a fresh executable (Figure 7).
func (s *Sched) Rebuild() (*link.Executable, *RebuildStats, error) {
	return s.finish()
}

func (s *Sched) finish() (*link.Executable, *RebuildStats, error) {
	if s.done {
		return nil, nil, fmt.Errorf("core: schedule already rebuilt")
	}
	s.done = true
	e := s.engine
	t0 := time.Now()

	// Open the rebuild trace. With telemetry off every span below is nil
	// and each span call is a single nil check.
	root := e.opts.Telemetry.Tracer().StartRebuild().Root()
	root.SetAttrInt("scheduled", int64(len(s.fragments)))
	root.SetAttrInt("active_probes", int64(len(s.ActiveProbes)))
	fail := func(err error) (*link.Executable, *RebuildStats, error) {
		var te *TimeoutError
		if errors.As(err, &te) {
			e.metrics.rebuildTimeouts.Inc()
		} else {
			e.metrics.rebuildFailures.Inc()
		}
		root.EndErr(err)
		return nil, nil, err
	}

	// Apply self-applying probes under panic isolation — a probe whose
	// Instrument panics is a caller bug the rebuild must survive, not a
	// process crash. The per-target fault site ("instrument:<symbol>") lets
	// the fault injector poison one probe's application deterministically,
	// which is what the Supervisor's poison-probe bisection tests lean on.
	instr := root.Child("instrument")
	for _, p := range s.ActiveProbes {
		inst, ok := p.(Instrumenter)
		if !ok {
			continue
		}
		err := capture(func() error {
			if hook := e.opts.FaultHook; hook != nil {
				if herr := hook("instrument:" + p.PatchTarget()); herr != nil {
					return herr
				}
			}
			return inst.Instrument(s)
		})
		if err != nil {
			ferr := stageError(-1, StageInstrument, "", fmt.Errorf("core: instrumenting @%s: %w", p.PatchTarget(), err))
			instr.EndErr(ferr)
			return fail(ferr)
		}
	}
	instr.End()

	// Fingerprint every defined symbol of the instrumented temporary IR
	// once, serially: the per-symbol hashes fold into each fragment's cache
	// key, and sharing one table means no worker ever re-hashes a symbol.
	// Hashing runs before verification so the verifier can skip functions
	// whose hash was already verified clean in an earlier rebuild.
	fp := root.Child("fingerprint")
	th := e.pristineHashes
	if s.Temp != e.Pristine || th == nil {
		th = computeTempHashes(s.Temp)
	}
	fp.End()

	// Boundary-tier verification of the instrumented temporary IR: strict
	// (dominance + full type checking) at the verifying tiers, with
	// hash-clean functions skipped via the verified-clean table; a no-op at
	// VerifyOff.
	vs := root.Child("verify")
	if err := e.verifyTemp(s.Temp, th); err != nil {
		err = fmt.Errorf("core: instrumented temporary IR invalid: %w", err)
		vs.EndErr(err)
		return fail(err)
	}
	vs.End()

	// Bound the whole compile phase by the rebuild deadline. On expiry the
	// pool abandons in-flight workers (their results land in a buffered
	// channel and are discarded) and a *TimeoutError reports what finished.
	ctx := context.Background()
	cancel := func() {}
	if e.opts.RebuildTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.opts.RebuildTimeout)
	}
	defer cancel()

	// Compile every affected fragment on the worker pool; results are
	// staged and ordered by fragment ID. On error the cache is untouched.
	tc0 := time.Now()
	comp := root.Child("compile")
	outs, workers, err := e.compileFragments(ctx, s.Temp, th, s.fragments, comp)
	if err != nil {
		comp.EndErr(err)
		return fail(err)
	}
	comp.End()
	stats := &RebuildStats{Workers: workers, CompileWall: time.Since(tc0)}

	// Link the staged image BEFORE committing anything, so a link-stage
	// fault (including an injected one) leaves both the cache and the
	// current executable untouched.
	tl := time.Now()
	ls := root.Child("link")
	exe, incremental, err := e.linkStaged(outs)
	if err != nil {
		ls.EndErr(err)
		return fail(err)
	}
	if incremental {
		ls.SetAttr("mode", "incremental")
	} else {
		ls.SetAttr("mode", "full")
	}
	ls.End()
	stats.LinkDur = time.Since(tl)

	// Every fragment compiled (possibly degraded) and the image linked:
	// nothing can fail any more. Hand fresh clean objects to the persistent
	// tier's writer (the disk is never on this path, and failures are the
	// store's to count — the in-memory commit is the source of truth either
	// way), then commit every staged fragment, the image and the rebuild
	// tally in one critical section, so a concurrent reader sees the
	// previous generation or this one, never a mix.
	commit := root.Child("commit")
	e.publish(outs)
	for i := range outs {
		stats.Fragments = append(stats.Fragments, outs[i].fc)
		stats.tally(&outs[i].fc)
	}
	stats.IncrementalLink = incremental
	stats.Total = time.Since(t0)
	e.allDirty = false
	e.Manager.clearDirtyThrough(s.dirtyEpoch)
	e.mu.Lock()
	for i := range outs {
		e.frags[outs[i].fc.FragID].commit(&outs[i])
	}
	e.exe = exe
	// A committed rebuild after InvalidateCache recompiled everything for
	// real; the persistent tier may serve warm loads again.
	e.persistBypass = false
	e.rebuilds++
	e.lastRebuild = *stats
	e.mu.Unlock()
	commit.End()
	e.recordRebuild(root, stats)
	root.End()
	return exe, stats, nil
}
