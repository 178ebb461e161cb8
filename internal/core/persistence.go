package core

// Persistence wiring: the disk-backed second cache tier (internal/persist)
// behind the in-memory fragment cache, plus engine state snapshots.
//
// The tiering contract mirrors the in-memory caches exactly. A fragment
// compile consults memory first (a content-hash hit on either of the
// fragment's two generations skips everything), then the persistent store (a
// warm hit skips materialize+opt+codegen but still links and commits
// normally), then compiles cold. Only artifacts a clean compile produced at
// the configured level are ever persisted — degraded, deferred, and
// quarantined objects never reach disk — so a warm-served object is always
// byte-identical to what the cold pipeline would produce. Publication is
// write-behind: a generation commits before its objects reach the disk.
// Entries and snapshots written by earlier versions may carry per-function
// hashes (persist.Entry.FuncHashes, EngineState.FuncMeta); the engine ignores
// them and writes them empty. Every persistence failure, from a missing
// directory to a bit-flipped entry to an injected persist:* fault, degrades
// to a counted cold compile; the rebuild pipeline never sees an error from
// this layer.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"odin/internal/ir"
	"odin/internal/persist"
)

// PersistBuildID is the toolchain identity stamped into every persisted
// blob, exposed for inspection tools that open an engine's cache or snapshot
// out-of-process (read-only). Artifacts are machine code for Odin's
// deterministic MIR target, so the Go release (which fixes gob encoding
// details and the compiler package versions baked into this binary) plus the
// persist schema are the compatibility surface; cache-relevant engine
// configuration (opt level, codegen strategy) is folded into each entry's
// key instead.
func PersistBuildID() string {
	return fmt.Sprintf("%s/odin-schema-%d", runtime.Version(), persist.Schema)
}

// persistOptions assembles the persist-layer options from the engine's:
// shared telemetry registry, shared (wrapped) fault hook so persist:* sites
// are injectable and counted like every other pipeline site.
func (o Options) persistOptions() persist.Options {
	return persist.Options{
		BuildID:   PersistBuildID(),
		Telemetry: o.Telemetry,
		FaultHook: o.FaultHook,
	}
}

// persistKey derives an entry's store key from a fragment's content hash and
// the opt level: the same instrumented IR compiled at a different level is a
// different artifact. The trailing 0 once named the code generator; it stays
// folded so keys, and the cache directories written under them, carry over.
func (e *Engine) persistKey(hash uint64) uint64 {
	h := ir.HashFold(ir.HashSeed, hash)
	h = ir.HashFold(h, uint64(e.opts.OptLevel))
	return ir.HashFold(h, 0)
}

// moduleFingerprint folds per-symbol fingerprints over the pristine module
// in module order — the identity a state snapshot is valid against.
// Fragment IDs, and therefore every per-fragment fact in a snapshot, are
// only meaningful for an identical partition of an identical module. The
// per-symbol table is returned alongside the fold so rebuilds whose
// temporary IR aliases the pristine module can reuse it.
func moduleFingerprint(m *ir.Module) (uint64, tempHashes) {
	th := computeTempHashes(m)
	h := ir.HashSeed
	for _, g := range m.Globals {
		if !g.Decl {
			h = ir.HashFold(h, th[g.Name])
		}
	}
	for _, a := range m.Aliases {
		h = ir.HashFold(h, th[a.Name])
	}
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			h = ir.HashFold(h, th[f.Name])
		}
	}
	return h, th
}

// preloadSnapshot runs before partitioning: it fingerprints the module,
// registers the persist metric families, and loads + identity-checks the
// state snapshot, so the snapshot's cached survey can feed PartitionWith.
// Returns a nil state on any miss or mismatch; the caller surveys cold.
func preloadSnapshot(m *ir.Module, opts Options) (moduleHash uint64, symHashes tempHashes, pm *persist.Metrics, st *persist.EngineState) {
	if opts.CacheDir == "" && opts.SnapshotPath == "" {
		return 0, nil, nil, nil
	}
	moduleHash, symHashes = moduleFingerprint(m)
	// The persist metric families register eagerly (shared by name with the
	// store's own handles), so open/load failures are countable even when no
	// store ever comes up.
	pm = persist.NewMetrics(opts.Telemetry)
	if opts.SnapshotPath == "" {
		return moduleHash, symHashes, pm, nil
	}
	st, err := persist.LoadState(opts.SnapshotPath, opts.persistOptions())
	if err != nil {
		pm.Fallbacks.Inc()
		return moduleHash, symHashes, pm, nil
	}
	if st == nil {
		return moduleHash, symHashes, pm, nil
	}
	if st.ModuleHash != moduleHash || st.Variant != opts.Variant.String() || st.OptLevel != opts.OptLevel {
		// A snapshot of some other program or configuration: its survey and
		// per-fragment state are meaningless here. Leave the file; a later
		// SaveSnapshot from this engine overwrites it.
		pm.Fallbacks.Inc()
		return moduleHash, symHashes, pm, nil
	}
	return moduleHash, symHashes, pm, st
}

// surveyFromClassification converts the partitioner's survey to its
// persisted form.
func surveyFromClassification(c *Classification) *persist.SurveyState {
	if c == nil {
		return nil
	}
	st := &persist.SurveyState{
		Cat:         make(map[string]int, len(c.Cat)),
		BondPairs:   c.BondPairs,
		InnatePairs: c.InnatePairs,
		CopyUsers:   c.CopyUsers,
	}
	for name, cat := range c.Cat {
		st.Cat[name] = int(cat)
	}
	return st
}

// classificationFromSurvey reconstructs a Classification from a snapshot's
// survey. Returns nil — survey cold — on a nil or malformed survey; the
// snapshot's module-hash guard makes a well-formed survey trustworthy.
func classificationFromSurvey(s *persist.SurveyState) *Classification {
	if s == nil || s.Cat == nil {
		return nil
	}
	c := &Classification{
		Cat:         make(map[string]Category, len(s.Cat)),
		BondPairs:   s.BondPairs,
		InnatePairs: s.InnatePairs,
		CopyUsers:   s.CopyUsers,
	}
	for name, cat := range s.Cat {
		if cat < int(Fixed) || cat > int(CopyOnUse) {
			return nil
		}
		c.Cat[name] = Category(cat)
	}
	if c.CopyUsers == nil {
		c.CopyUsers = map[string][]string{}
	}
	return c
}

// openPersistence wires the disk tier into a freshly constructed engine:
// open (or degrade without) the artifact store, then apply the preloaded
// state snapshot. Called from New before the engine is published, so no
// locking.
func (e *Engine) openPersistence(moduleHash uint64, pm *persist.Metrics, st *persist.EngineState) {
	if e.opts.CacheDir == "" && e.opts.SnapshotPath == "" {
		return
	}
	e.moduleHash = moduleHash
	e.persistMetrics = pm
	if e.opts.CacheDir != "" {
		s, err := persist.Open(e.opts.CacheDir, e.opts.persistOptions())
		if err != nil {
			// Unusable cache directory (hard I/O error or injected fault):
			// run cold. The engine must come up regardless.
			e.persistMetrics.Fallbacks.Inc()
		} else {
			e.store, e.wb = s, newWriteBehind(s)
		}
	}
	if st != nil {
		e.applySnapshot(st)
	}
}

// applySnapshot restores engine state from a preloaded, identity-checked
// snapshot: per fragment the committed fingerprint (effective once the
// object warm-loads from the store), quarantined passes and deferral; the
// verified-clean function hashes; and the supervisor state held for the next
// Supervise call.
func (e *Engine) applySnapshot(st *persist.EngineState) {
	if st.Fragments != len(e.frags) {
		// The identity fields matched but the partition disagrees — only
		// possible if the cached survey no longer reproduces the recorded
		// partition (i.e. the snapshot is internally inconsistent). Apply
		// nothing; per-fragment facts would land on the wrong fragments.
		e.persistMetrics.Fallbacks.Inc()
		return
	}
	for id := range e.frags {
		fs := &e.frags[id]
		fs.hash, fs.hashKnown = st.Hashes[id]
		if passes := st.Quarantine[id]; len(passes) > 0 {
			fs.quarantine = make(map[string]bool, len(passes))
			for _, p := range passes {
				fs.quarantine[p] = true
			}
		}
	}
	for _, id := range st.Deferred {
		if id >= 0 && id < len(e.frags) {
			e.frags[id].deferred = true
		}
	}
	for name, h := range st.VerifiedFuncs {
		e.verified.clean[name] = [2]uint64{h}
	}
	e.restoredSup = st.Supervisor
	e.snapRestored = true
}

// SnapshotRestored reports whether engine state was restored from
// Options.SnapshotPath at construction.
func (e *Engine) SnapshotRestored() bool { return e.snapRestored }

// PersistStats drains the write-behind queue and snapshots the store's
// counters; ok is false without a store (Options.CacheDir unset or unusable).
func (e *Engine) PersistStats() (persist.Stats, bool) {
	if e.store == nil {
		return persist.Stats{}, false
	}
	e.wb.flush(false)
	return e.store.Stats(), true
}

// loadPersisted consults the disk tier for a fragment whose in-memory lookup
// missed. It returns nil — compile cold — whenever the store is absent or
// the entry is missing or was evicted as corrupt.
func (e *Engine) loadPersisted(hash uint64) *persist.Entry {
	if e.store == nil {
		return nil
	}
	ent, _ := e.store.Get(e.persistKey(hash))
	if ent == nil || ent.Level != e.opts.OptLevel {
		// The key folds the level, so a mismatch cannot happen short of a
		// hash collision; refuse rather than commit a wrong-level object.
		return nil
	}
	return ent
}

// publishDepth bounds the write-behind queue in generations, one batch each
// however many fragments it compiled: only a writer stalled that long drops.
const publishDepth = 64

// writeBehind is the persistent tier's publication queue: a committing
// generation hands it its fresh clean objects and goes on; one writer
// goroutine, started with the store and stopped by Close, puts them. mu
// guards q (nil once closed) and pending, the batches queued or in writing.
type writeBehind struct {
	store   *persist.Store
	q       chan []*persist.Entry
	mu      sync.Mutex
	idle    sync.Cond // signalled as each batch lands
	pending int
}

func newWriteBehind(store *persist.Store) *writeBehind {
	q := make(chan []*persist.Entry, publishDepth)
	wb := &writeBehind{store: store, q: q}
	wb.idle.L = &wb.mu
	go func() {
		for batch := range q {
			for _, ent := range batch {
				_ = store.Put(ent.Key, ent)
			}
			wb.mu.Lock()
			wb.pending--
			wb.idle.Broadcast()
			wb.mu.Unlock()
		}
	}()
	return wb
}

// publish queues a committing generation's fresh, clean objects (hits are
// already stored; degraded or deferred results never are). It never blocks:
// with the queue full or closed the batch is dropped, each entry a counted
// store fallback — a later cold compile, never a wrong image.
func (e *Engine) publish(outs []fragOut) {
	if e.wb == nil {
		return
	}
	var batch []*persist.Entry
	for i := range outs {
		if o := &outs[i]; !o.deferred && !o.fc.CacheHit && !o.fc.WarmHit && !o.fc.Degraded {
			batch = append(batch, &persist.Entry{Key: e.persistKey(o.hash), Object: o.obj, Level: o.fc.Level})
		}
	}
	if len(batch) == 0 {
		return
	}
	e.wb.mu.Lock()
	defer e.wb.mu.Unlock()
	select {
	case e.wb.q <- batch:
		e.wb.pending++
		return
	default:
	}
	for range batch {
		e.store.Fallback()
	}
}

// flush waits until every queued batch has reached the store (a no-op
// without one); stop first closes the queue, which ends the writer goroutine.
func (wb *writeBehind) flush(stop bool) {
	if wb == nil {
		return
	}
	wb.mu.Lock()
	defer wb.mu.Unlock()
	if stop && wb.q != nil {
		close(wb.q)
		wb.q = nil
	}
	for wb.pending > 0 {
		wb.idle.Wait()
	}
}

// buildState captures the engine's persistable state under the engine lock.
func (e *Engine) buildState() *persist.EngineState {
	st := &persist.EngineState{
		ModuleHash:    e.moduleHash,
		Variant:       e.opts.Variant.String(),
		OptLevel:      e.opts.OptLevel,
		VerifyTier:    int(e.opts.Verify),
		Fragments:     len(e.frags),
		Hashes:        make(map[int]uint64, len(e.frags)),
		Survey:        surveyFromClassification(e.Plan.Class),
		VerifiedFuncs: e.verified.newest(),
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for id := range e.frags {
		fs := &e.frags[id]
		if fs.hashKnown {
			st.Hashes[id] = fs.hash
		}
		if len(fs.quarantine) > 0 {
			if st.Quarantine == nil {
				st.Quarantine = map[int][]string{}
			}
			st.Quarantine[id] = sortedKeys(fs.quarantine)
		}
		if fs.deferred {
			st.Deferred = append(st.Deferred, id)
		}
	}
	return st
}

// SaveSnapshot drains the write-behind queue, so the objects the snapshot
// names are on disk, then atomically writes the engine's state snapshot to
// Options.SnapshotPath (a no-op without one), including the supervisor's
// breaker state when a Supervisor owns this engine. Safe to call
// concurrently with rebuilds; the snapshot is a consistent view taken under
// the engine lock.
func (e *Engine) SaveSnapshot() error {
	e.wb.flush(false)
	if e.opts.SnapshotPath == "" {
		return nil
	}
	st := e.buildState()
	e.supMu.Lock()
	supState := e.supState
	e.supMu.Unlock()
	if supState != nil {
		st.Supervisor = supState()
	} else {
		// No live supervisor: carry the restored state forward so breaker
		// history survives engine-only restarts too.
		st.Supervisor = e.restoredSup
	}
	if err := persist.SaveState(e.opts.SnapshotPath, st, e.opts.persistOptions()); err != nil {
		e.persistMetrics.Fallbacks.Inc()
		return err
	}
	return nil
}

// registerSupervisorState installs the supervisor's state-capture callback,
// consulted by SaveSnapshot.
func (e *Engine) registerSupervisorState(fn func() *persist.SupervisorState) {
	e.supMu.Lock()
	e.supState = fn
	e.supMu.Unlock()
}

// takeRestoredSupervisor hands the snapshot's supervisor state to the first
// Supervise call on this engine.
func (e *Engine) takeRestoredSupervisor() *persist.SupervisorState {
	e.supMu.Lock()
	defer e.supMu.Unlock()
	st := e.restoredSup
	return st
}

// persistState captures the supervisor's breaker and quarantine state for a
// snapshot. Probe IDs are process-local (probes re-register after restart),
// so quarantine restoration is best-effort by construction; the breaker and
// its backoff are what must survive.
func (s *Supervisor) persistState() *persist.SupervisorState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &persist.SupervisorState{
		Breaker:     int(s.state),
		ConsecFails: s.consecFails,
		BackoffNS:   int64(s.backoff),
	}
	if len(s.quarantined) > 0 {
		st.Quarantined = make(map[int]string, len(s.quarantined))
		for id, err := range s.quarantined {
			st.Quarantined[id] = err.Error()
		}
	}
	return st
}

// restoreSupervisorState seeds a fresh supervisor from a snapshot's state:
// an open breaker stays open (with its grown backoff) across the restart
// rather than being re-trusted just because the process bounced.
func (s *Supervisor) restoreSupervisorState(st *persist.SupervisorState) {
	if st == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.Breaker >= int(BreakerClosed) && st.Breaker <= int(BreakerOpen) {
		s.state = BreakerState(st.Breaker)
	}
	if st.ConsecFails > 0 {
		s.consecFails = st.ConsecFails
	}
	if st.BackoffNS > 0 {
		s.backoff = time.Duration(st.BackoffNS)
		if s.backoff > s.opts.BreakerMaxBackoff {
			s.backoff = s.opts.BreakerMaxBackoff
		}
	}
	if s.state == BreakerOpen {
		s.reopenAt = time.Now().Add(s.backoff)
		s.openSince = time.Now()
	}
	for id, msg := range st.Quarantined {
		s.quarantined[id] = fmt.Errorf("restored from snapshot: %s", msg)
	}
}
