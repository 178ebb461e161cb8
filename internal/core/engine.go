package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/obj"
	"odin/internal/persist"
	"odin/internal/telemetry"
	"odin/internal/toolchain"
)

// Options configures an Engine.
type Options struct {
	// Variant selects the partition scheme (default VariantOdin).
	Variant Variant
	// OptLevel is the per-fragment optimization level (default 2).
	OptLevel int
	// ExtraBuiltins lists instrumentation hook symbols the linker may
	// bind calls to (e.g. "__odin_cov_hit").
	ExtraBuiltins []string
	// Workers bounds the recompilation worker pool. Fragments are
	// independent compilation units by construction, so affected fragments
	// compile concurrently; 0 means runtime.GOMAXPROCS(0), and 1 recovers
	// the serial pipeline whose per-fragment times the paper's Figures
	// 11/12 measure.
	Workers int
	// RebuildTimeout bounds one Sched.Rebuild end to end via context
	// cancellation through the worker pool, so a pathological fragment
	// cannot hang a fuzzing campaign. When it expires the rebuild returns
	// a *TimeoutError, the cache and current executable are untouched, and
	// in-flight fragment compiles are abandoned to finish harmlessly in
	// the background. 0 means no deadline.
	RebuildTimeout time.Duration
	// FaultHook, when non-nil, is called at named pipeline sites
	// ("opt:<pass>", "codegen:module", "link:incremental", "link:full").
	// A returned error fails that stage; a panic exercises the rebuild
	// supervisor's panic isolation. The faultinject package provides a
	// deterministic, seeded implementation for robustness testing.
	FaultHook func(site string) error
	// Telemetry, when non-nil, receives engine metrics (rebuild, fragment
	// compile, cache, degradation, and link-mode families plus duration
	// histograms) and a span trace of every rebuild. nil disables all
	// instrumentation: handles are nil, every update is a single nil
	// check, and no telemetry allocation happens anywhere on the rebuild
	// path, so the engine stays usable as a zero-overhead library.
	Telemetry *telemetry.Registry
	// Verify selects the IR verification tier for rebuilds: VerifyOff skips
	// all rebuild-path verification, VerifyBoundaries (the default,
	// overridable via ODIN_VERIFY) strictly verifies the instrumented
	// temporary IR (with per-function content-hash caching) and every
	// post-optimization fragment module, and VerifyAll adds strict
	// verification after every optimizer pass with the offending pass
	// attributed on violation.
	Verify VerifyMode
	// CacheDir, when non-empty, attaches a crash-safe persistent artifact
	// store (internal/persist) as a second cache tier behind the in-memory
	// fragment cache: clean compiles publish their objects, and later
	// engines — including restarted processes — warm-start from them. Every
	// store failure (corrupt entry, locked or unusable directory, full
	// disk) silently degrades to a cold compile with odin_persist_*
	// telemetry counting the fallback.
	CacheDir string
	// SnapshotPath, when non-empty, names the engine state snapshot file:
	// New restores matching state from it (quarantined passes, survey,
	// verified functions) and Close atomically
	// rewrites it. A corrupt, skewed or mismatched snapshot degrades to a
	// cold start.
	SnapshotPath string
	// AdoptModule transfers ownership of the input module to the engine: New
	// uses it directly as the pristine module instead of defensively cloning
	// it, and the caller must not read or mutate the module afterward. The
	// engine itself never mutates its pristine module, so adoption is safe
	// whenever the module was parsed or built solely to construct this
	// engine — the common case for tools, and a measurable share of a warm
	// engine restart once the persistent tier absorbs compilation itself.
	AdoptModule bool
}

// workers resolves the configured pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// FragCompile records one fragment recompilation, the unit of Figures 11/12.
// The json tags feed machine-readable stats export (`odin-bench -json`);
// durations marshal as nanoseconds.
type FragCompile struct {
	FragID int `json:"frag_id"`
	// Materialize covers temporary-IR split and fragment module
	// construction; Opt and CodeGen are the compiler middle end and back
	// end the paper's recompilation-cost figures measure.
	Materialize time.Duration `json:"materialize_ns"`
	Opt         time.Duration `json:"opt_ns"`
	CodeGen     time.Duration `json:"codegen_ns"`
	// Instrs is the machine code size of the fragment after compilation.
	Instrs int `json:"instrs"`
	// CacheHit records that the fragment's post-instrumentation IR hashed
	// identical to the cached object's, so Opt and CodeGen were skipped.
	CacheHit bool `json:"cache_hit,omitempty"`
	// WarmHit records that the in-memory cache missed but the persistent
	// store served a verified object for the same content hash and compile
	// configuration — the warm-start path. Like a cache hit, Opt and
	// CodeGen were skipped; unlike one, the object was installed fresh from
	// disk.
	WarmHit bool `json:"warm_hit,omitempty"`
	// FuncsTotal counts the fragment's defined member functions this
	// rebuild. The fragment is the unit of recompilation, so either all of
	// them ran the middle and back end (FuncsCompiled) or all were served
	// from a cached object (FuncCacheHits); a deferral counts neither.
	FuncsTotal    int `json:"funcs_total,omitempty"`
	FuncsCompiled int `json:"funcs_compiled,omitempty"`
	FuncCacheHits int `json:"func_cache_hits,omitempty"`
	// Level is the optimization level the committed object was compiled
	// at; below Options.OptLevel it reflects the degradation ladder.
	Level int `json:"level"`
	// Attempts counts compile attempts the degradation ladder made (1 for
	// a clean first-try compile; 0 for cache hits and deferrals before
	// the first attempt).
	Attempts int `json:"attempts"`
	// Degraded records that the fragment compiled below the configured
	// level or with quarantined passes skipped.
	Degraded bool `json:"degraded,omitempty"`
	// QuarantinedPass names the optimizer pass newly quarantined for this
	// fragment during this rebuild, if any.
	QuarantinedPass string `json:"quarantined_pass,omitempty"`
	// Deferred records the ladder's last rung: every compile attempt
	// failed and the fragment's last-good cached object was served
	// instead, leaving the probe change unapplied until a later rebuild.
	Deferred bool `json:"deferred,omitempty"`
	// DeferredCause describes the failure that forced the deferral.
	DeferredCause string `json:"deferred_cause,omitempty"`
}

// MiddleBackEnd is the compiler time the paper's Figures 11/12 count.
func (fc FragCompile) MiddleBackEnd() time.Duration { return fc.Opt + fc.CodeGen }

// RebuildStats describes one on-the-fly recompilation. The json tags feed
// machine-readable stats export (`odin-bench -json`); durations marshal as
// nanoseconds.
type RebuildStats struct {
	Fragments []FragCompile `json:"fragments"`
	// CacheHits counts fragments satisfied by the content-hash cache
	// (recompilation scheduled, IR unchanged, compile skipped).
	CacheHits int `json:"cache_hits"`
	// WarmHits counts fragments served from the persistent artifact store
	// (in-memory miss, verified disk entry) — the warm-start savings.
	WarmHits int `json:"warm_hits,omitempty"`
	// Degraded counts fragments the degradation ladder compiled below the
	// configured optimization level (or with passes quarantined) after a
	// stage failure.
	Degraded int `json:"degraded"`
	// Quarantined counts optimizer passes newly quarantined this rebuild.
	Quarantined int `json:"quarantined"`
	// Deferred counts fragments served from their last-good cached object
	// because every compile attempt failed; DeferredFrags lists them. The
	// probe changes targeting those fragments are deferred: they stay
	// scheduled and are retried on the next rebuild.
	Deferred      int   `json:"deferred"`
	DeferredFrags []int `json:"deferred_frags,omitempty"`
	// FuncCacheHits and FuncsCompiled aggregate the per-fragment counters:
	// member functions served from cached objects vs. actually recompiled.
	FuncCacheHits int `json:"func_cache_hits"`
	FuncsCompiled int `json:"funcs_compiled"`
	// Spliced and SpliceFallbacks are always zero. They counted a
	// function-granular splice path that no longer exists; the fields stay
	// so that readers built against them keep compiling and report zero.
	Spliced         int `json:"spliced"`
	SpliceFallbacks int `json:"splice_fallbacks,omitempty"`
	// Workers is the compile-pool size used for this rebuild.
	Workers int `json:"workers"`
	// CompileWall is the wall-clock duration of the (parallel) compile
	// phase; CompileCPU is the cumulative per-fragment compile time — what
	// the same rebuild costs with Workers=1. The ratio is the realized
	// parallel speedup.
	CompileWall time.Duration `json:"compile_wall_ns"`
	CompileCPU  time.Duration `json:"compile_cpu_ns"`
	LinkDur     time.Duration `json:"link_ns"`
	// IncrementalLink records whether the relink reused the previous
	// link's symbol-resolution state instead of resolving from scratch.
	IncrementalLink bool          `json:"incremental_link"`
	Total           time.Duration `json:"total_ns"`
}

// tally adds one fragment's outcome to the rebuild's aggregate counters.
func (st *RebuildStats) tally(fc *FragCompile) {
	st.CompileCPU += fc.Materialize + fc.Opt + fc.CodeGen
	if fc.CacheHit {
		st.CacheHits++
	}
	if fc.WarmHit {
		st.WarmHits++
	}
	st.FuncCacheHits += fc.FuncCacheHits
	st.FuncsCompiled += fc.FuncsCompiled
	if fc.Deferred {
		st.Deferred++
		st.DeferredFrags = append(st.DeferredFrags, fc.FragID)
	} else if fc.Degraded {
		st.Degraded++
	}
	if fc.QuarantinedPass != "" {
		st.Quarantined++
	}
}

// SerialEquivalent is the middle+back-end compile time summed over
// fragments — the serial pipeline cost Figures 11/12 report, independent of
// how many workers the rebuild actually used.
func (st *RebuildStats) SerialEquivalent() time.Duration {
	var sum time.Duration
	for _, fc := range st.Fragments {
		sum += fc.MiddleBackEnd()
	}
	return sum
}

// fragState is everything the engine keeps per fragment: the machine-code
// cache entry of Figure 5 and, beside it, what the degradation ladder needs
// to know about it. A compile copies its fragment's record once; finish
// commits every staged result in one critical section; the state snapshot
// saves and restores its pass quarantine.
type fragState struct {
	// obj is the cached object; nil until the fragment's first build.
	obj *obj.Object
	// hash fingerprints the post-instrumentation IR that produced obj.
	// hashKnown is false before the first build and after InvalidateCache.
	hash      uint64
	hashKnown bool
	// prev is the previous distinct clean object and prevHash its
	// fingerprint, so reverting a probe change is a cache hit. clean marks
	// obj as eligible to become prev: not degraded, no new quarantine.
	prev     *obj.Object
	prevHash uint64
	clean    bool
	// quarantine holds the optimizer passes that made this fragment's
	// compile fail; later rebuilds skip them (degradation ladder, step 3).
	// The map is replaced, never mutated, so a copied record reads it
	// without the lock.
	quarantine map[string]bool
	// deferred marks that the last rebuild served obj instead of the newly
	// instrumented IR; the fragment stays scheduled until a rebuild commits
	// a fresh object for it.
	deferred bool
}

// lookup returns the object of either generation compiled from IR with
// fingerprint hash, or nil.
func (st *fragState) lookup(hash uint64) *obj.Object {
	if st.obj != nil && st.hashKnown && st.hash == hash {
		return st.obj
	}
	if st.prev != nil && st.prevHash == hash {
		return st.prev
	}
	return nil
}

// commit folds one staged compilation result into the record. finish calls
// it only after every scheduled fragment succeeded AND the staged image
// linked. A deferred fragment keeps both generations; otherwise a new
// object demotes the newest to prev when that one is clean.
func (st *fragState) commit(o *fragOut) {
	if o.deferred {
		st.deferred = true
		return
	}
	st.deferred = false
	if o.obj == st.obj {
		return
	}
	switch {
	case st.clean && st.hashKnown && st.hash != o.hash:
		st.prev, st.prevHash = st.obj, st.hash
	case o.obj == st.prev:
		st.prev = nil
	}
	st.obj, st.hash, st.hashKnown, st.clean = o.obj, o.hash, true, !o.fc.Degraded
}

// Engine is the Odin instrumentation framework instance for one program.
// It owns the pristine whole-program IR, the partition plan, the probe
// manager, and the machine-code cache.
type Engine struct {
	// Pristine is the unmodified whole-program IR. Probes hold references
	// into it; recompilations instrument temporary copies (§4).
	Pristine *ir.Module
	Plan     *Plan
	Manager  *PatchManager

	opts Options
	// mu guards frags, exe, persistBypass and the rebuild tally. Pool workers
	// read concurrently, and a worker abandoned by a rebuild deadline may
	// still be reading while a later rebuild commits.
	mu sync.RWMutex
	// frags is the machine-code cache: one record per fragment, indexed by
	// fragment ID (dense plan indices).
	frags  []fragState
	linker *link.Incremental
	exe    *link.Executable
	// aliasByName indexes the pristine module's aliases by name, built once
	// at engine construction; materialize consults it per member instead of
	// scanning every alias per member (O(members × aliases)).
	aliasByName map[string]*ir.Alias
	// verified remembers which function bodies strict verification already
	// accepted (verify.go).
	verified verifiedTable
	// allDirty forces every fragment into the next schedule (MarkAllDirty).
	allDirty bool
	// testFragHook, when set by tests, can poison individual fragment
	// compilations to exercise pool error propagation.
	testFragHook func(fragID int) error
	// metrics holds the pre-registered telemetry handles (all nil when
	// Options.Telemetry is nil; every handle method is nil-safe).
	metrics engineMetrics
	// closeOnce makes Close idempotent and concurrent-safe: the first call
	// does the work, every later call returns the same result.
	closeOnce sync.Once
	closeErr  error
	// store is the persistent artifact tier (wb its write-behind queue),
	// non-nil only when Options.CacheDir named a usable directory.
	// persistBypass (guarded by mu) suppresses warm loads between
	// InvalidateCache and the next successful rebuild, so invalidation
	// forces real recompilation instead of disk hits. moduleHash fingerprints the pristine module for
	// snapshot identity; persistMetrics counts persistence fallbacks that
	// happen outside any store (open/snapshot failures).
	store          *persist.Store
	wb             *writeBehind
	persistBypass  bool
	moduleHash     uint64
	persistMetrics *persist.Metrics
	snapRestored   bool
	// pristineHashes is the per-symbol fingerprint table computed as a side
	// effect of the snapshot identity hash. A rebuild whose temporary IR
	// aliases the pristine module (BuildAll, no probes) reuses it instead of
	// re-fingerprinting every symbol.
	pristineHashes tempHashes
	// rebuilds counts committed rebuilds and lastRebuild is the most recent
	// one's statistics, both published under mu at commit. A long-running
	// daemon keeps only these; callers that want every rebuild's statistics
	// keep what BuildAll and Rebuild return.
	rebuilds    int
	lastRebuild RebuildStats
}

// New surveys and partitions the program, returning an engine whose cache is
// cold (the first Rebuild compiles everything).
func New(m *ir.Module, opts Options) (*Engine, error) {
	if opts.OptLevel == 0 {
		opts.OptLevel = 2
	}
	opts.Verify = opts.Verify.resolve()
	// Wrap the fault hook with injection counters before fanning it out to
	// the back end and linker, so every site's faults are counted once.
	opts.FaultHook = wrapFaultHook(opts.Telemetry, opts.FaultHook)
	// The input module is checked once regardless of tier (it is outside
	// the rebuild path): the base structural check always, the strict
	// upgrade (dominance-based SSA + full type checking) below, after the
	// snapshot is consulted — a matching snapshot's module hash proves this
	// exact content already passed the strict check in the verifying
	// session that wrote it.
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("core: input module: %w", err)
	}
	pristine := m
	if !opts.AdoptModule {
		pristine, _ = ir.CloneModule(m)
	}
	// Load the state snapshot before partitioning: a matching snapshot
	// carries the classification survey, so a warm start skips the trial
	// optimization run Classify performs over the whole module.
	moduleHash, symHashes, pm, snapState := preloadSnapshot(pristine, opts)
	if opts.Verify != VerifyOff &&
		(snapState == nil || snapState.VerifyTier == int(VerifyOff)) {
		if err := ir.VerifyStrict(m); err != nil {
			return nil, fmt.Errorf("core: input module: %w", err)
		}
	}
	var cls *Classification
	if snapState != nil {
		cls = classificationFromSurvey(snapState.Survey)
	}
	plan, err := PartitionWith(pristine, opts.Variant, opts.OptLevel, cls)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Pristine:    pristine,
		Plan:        plan,
		Manager:     NewPatchManager(),
		opts:        opts,
		frags:       make([]fragState, len(plan.Fragments)),
		linker:      link.NewIncremental(),
		aliasByName: make(map[string]*ir.Alias, len(pristine.Aliases)),
		verified:    verifiedTable{clean: map[string][2]uint64{}},
	}
	for _, a := range pristine.Aliases {
		e.aliasByName[a.Name] = a
	}
	e.linker.FaultHook = opts.FaultHook
	e.metrics = newEngineMetrics(opts.Telemetry)
	e.metrics.fragments.Set(int64(len(plan.Fragments)))
	e.metrics.workers.Set(int64(opts.workers()))
	e.linker.Instrument(opts.Telemetry)
	// Attach the persistent tier and restore any state snapshot before the
	// engine is published; failures degrade to a cold start, never an error.
	e.pristineHashes = symHashes
	e.openPersistence(moduleHash, pm, snapState)
	return e, nil
}

// Close releases the engine's resources exactly once: it drains and stops
// the write-behind queue, writes the state snapshot (Options.SnapshotPath),
// then closes the persistent store. Close is idempotent and safe to call
// concurrently — including while a rebuild is in flight: a racing commit's
// publications are dropped as counted fallbacks, and the store's writer lock
// is released exactly once.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.wb.flush(true)
		// Snapshot before closing the store: SaveSnapshot reads only engine
		// state (under the engine lock), never the store.
		e.closeErr = e.SaveSnapshot()
		if e.store != nil {
			if cerr := e.store.Close(); e.closeErr == nil {
				e.closeErr = cerr
			}
		}
	})
	return e.closeErr
}

// Executable returns the most recently linked program image, or nil before
// the first rebuild. It is safe to call concurrently with a rebuild: the
// image pointer is published under the engine lock at commit.
func (e *Engine) Executable() *link.Executable {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.exe
}

// Builtins returns the full linker builtin list for this engine.
func (e *Engine) Builtins() []string {
	return toolchain.StdBuiltins(e.opts.ExtraBuiltins...)
}

// BuildAll runs a full schedule-instrument-rebuild cycle, applying every
// active probe that implements Instrumenter. It is both the initial build
// and the convenience path for tools whose probes are self-applying.
func (e *Engine) BuildAll() (*link.Executable, *RebuildStats, error) {
	sched, err := e.schedule(true)
	if err != nil {
		return nil, nil, err
	}
	return sched.finish()
}

// MarkAllDirty schedules every fragment for the next rebuild regardless of
// probe state. Fragments whose post-instrumentation IR is unchanged are
// satisfied by the content-hash cache, so this revalidates the whole image
// at roughly the cost of one materialize pass per fragment.
func (e *Engine) MarkAllDirty() { e.allDirty = true }

// InvalidateCache schedules every fragment for the next rebuild and
// discards the content fingerprints, forcing real recompilation even of
// fragments whose IR is unchanged. Benchmarks use this to measure cold
// full rebuilds without re-partitioning.
func (e *Engine) InvalidateCache() {
	e.allDirty = true
	e.mu.Lock()
	for i := range e.frags {
		e.frags[i].hashKnown, e.frags[i].prev = false, nil
	}
	// The persistent tier would defeat the invalidation — the evicted
	// objects are still on disk under unchanged keys — so warm loads are
	// bypassed until the forced rebuild commits.
	e.persistBypass = true
	e.mu.Unlock()
}

// affectedFragments computes the fragment set that must be recompiled for
// the current dirty symbols (the symbol-to-fragment propagation of
// Algorithm 2), plus fragments never built and fragments whose probe change
// a failed compile deferred, in ascending ID order.
func (e *Engine) affectedFragments(dirtySyms []string) []int {
	dirty := make([]bool, len(e.frags))
	for _, s := range dirtySyms {
		for _, id := range e.Plan.FragmentsOf(s) {
			dirty[id] = true
		}
	}
	var out []int
	e.mu.RLock()
	for id := range e.frags {
		if st := &e.frags[id]; e.allDirty || dirty[id] || st.obj == nil || st.deferred {
			out = append(out, id)
		}
	}
	e.mu.RUnlock()
	return out
}

// linkStaged links the current cache contents overlaid with this rebuild's
// staged objects (outs ascends by fragment ID, as affectedFragments
// scheduled them), under panic isolation, reusing the previous link's
// symbol-resolution state when the object layout is unchanged. Nothing is
// committed to the cache until this succeeds, so a link-stage fault leaves
// both the cache and the current executable untouched. The second result
// reports whether the incremental path was taken.
func (e *Engine) linkStaged(outs []fragOut) (*link.Executable, bool, error) {
	objs := make([]*obj.Object, 0, len(e.frags))
	e.mu.RLock()
	for id := range e.frags {
		o := e.frags[id].obj
		if len(outs) > 0 && outs[0].fc.FragID == id {
			o, outs = outs[0].obj, outs[1:]
		}
		if o != nil {
			objs = append(objs, o)
		}
	}
	e.mu.RUnlock()
	var exe *link.Executable
	var incremental bool
	err := capture(func() error {
		var lerr error
		exe, incremental, lerr = e.linker.Link(objs, e.Builtins())
		return lerr
	})
	if err != nil {
		return nil, false, stageError(-1, StageLink, "", err)
	}
	return exe, incremental, nil
}

// addQuarantine records that a pass caused the fragment's compile to fail;
// future rebuilds of the fragment skip it. It returns the fragment's new
// quarantine set.
func (e *Engine) addQuarantine(id int, pass string) map[string]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := &e.frags[id]
	next := make(map[string]bool, len(st.quarantine)+1)
	for p := range st.quarantine {
		next[p] = true
	}
	next[pass] = true
	// Both generations predate the new pass set: neither may serve as prev.
	st.quarantine, st.prev, st.clean = next, nil, false
	return next
}
