package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/persist"
	"odin/internal/progen"
	"odin/internal/telemetry"
)

// ErrShardDead reports that the shard exhausted its recovery ladder —
// every restart in place failed — and was marked dead. Requests fail
// fast with 503 + Retry-After until an operator restarts the process.
var ErrShardDead = errors.New("serve: shard dead (recovery ladder exhausted)")

// deadRetryAfter is the Retry-After a dead shard advertises. Recovery needs
// an operator, so the interval is long — its job is only to stop retry
// storms, not to promise recovery.
const deadRetryAfter = 30 * time.Second

// ShardSpec configures one engine shard: a program hosted behind its own
// supervisor with its own persistent cache, so shards fail, warm-start, and
// trip breakers independently.
type ShardSpec struct {
	// Name identifies the shard in routes, metrics labels, and the persist
	// layout. Required, must be path-safe (persist.ShardLayout enforces it).
	Name string
	// Program names a progen suite profile to generate the hosted module
	// from. Ignored when Module is set.
	Program string
	// Module hosts an explicit IR module instead of a generated profile.
	Module *ir.Module
	// Workers sets the shard engine's compile pool size (0 = engine
	// default).
	Workers int
	// QueueDepth bounds the shard supervisor's admission queue (0 =
	// supervisor default).
	QueueDepth int
	// FaultHook threads a fault-injection hook into every engine instance
	// this shard boots (the first and its restarts) — the chaos-drill
	// substrate (internal/faultinject sites, e.g. supervisor:commit).
	FaultHook func(site string) error
	// Watchdog tunes the shard's health watchdog and recovery ladder.
	Watchdog WatchdogOptions
}

// engineSlot is one live engine + supervisor instance. The shard serves
// from exactly one slot at a time; lifecycle recovery swaps the whole slot
// atomically on a restart in place.
type engineSlot struct {
	eng *core.Engine
	sup *core.Supervisor
	// warmHits is the persist-tier hit count observed right after the boot
	// build — warm-start evidence, frozen so later traffic doesn't dilute
	// it.
	warmHits uint64
	// booted is when the slot went live.
	booted time.Time
}

// shard is one hosted program: a swappable engine slot plus the stable
// serve-level state that survives engine instances — the probe ledger, the
// tenant-probe journal, the telemetry registry, and the lifecycle manager.
type shard struct {
	name    string
	program string
	spec    ShardSpec
	// paths places the shard's persist tier: derived from the server's
	// DataDir through persist.ShardLayout, or zero for no persistence (and
	// no journal: probe state dies with the engine).
	paths persist.ShardPaths
	// module is the pristine hosted module, retained (never adopted by an
	// engine) so restarts can boot new engines from it.
	module *ir.Module
	// reg is the shard's telemetry registry, shared by every engine
	// instance: handles are reused and gauge functions rebind on restart,
	// so fleet aggregation stays attached across failovers.
	reg *telemetry.Registry
	// funcs lists the instrumentable (defined, non-empty) functions of the
	// hosted module, so clients can discover probe targets.
	funcs []string
	// site allocates shard-unique hit-site IDs for counter probes.
	site atomic.Int64

	journal *probeJournal

	// mu guards the slot machinery (slot, swapping, gate, deadErr), the
	// probe ledger, and nextID, the last serve-level probe ID handed out:
	// unlike engine probe IDs, serve IDs are stable across engine restarts.
	mu       sync.Mutex
	slot     *engineSlot
	swapping bool
	gate     chan struct{}
	deadErr  error
	probes   map[int64]*probeRec
	nextID   int64

	lc      *lifecycle
	metrics *shardMetrics
}

// probeRec is the control plane's per-probe bookkeeping, keyed by the
// serve-level probe ID. EngID is the probe's ID on the serving engine
// slot; replays rewrite it.
type probeRec struct {
	Tenant string
	Spec   ProbeSpec
	EngID  int
	Active bool
}

// bootEngine builds one engine + supervisor over the shard's module and
// runs the boot build.
func (sh *shard) bootEngine(ctx context.Context) (*engineSlot, error) {
	eng, err := core.New(sh.module, core.Options{
		Telemetry:     sh.reg,
		ExtraBuiltins: []string{HitBuiltin},
		Workers:       sh.spec.Workers,
		CacheDir:      sh.paths.CacheDir,
		SnapshotPath:  sh.paths.SnapshotPath,
		FaultHook:     sh.spec.FaultHook,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: shard %s: %w", sh.name, err)
	}
	sup := core.Supervise(eng, core.SupervisorOptions{QueueDepth: sh.spec.QueueDepth})
	// Boot build through the supervisor so the image exists (and the warm
	// cache is consulted) before the slot takes traffic.
	tk, err := sup.SyncCtx(ctx)
	if err == nil {
		var res core.TicketResult
		if res, err = tk.Wait(ctx); err == nil {
			err = res.Err
		}
	}
	if err != nil {
		sup.Close()
		eng.Close()
		return nil, fmt.Errorf("serve: shard %s boot build: %w", sh.name, err)
	}
	slot := &engineSlot{eng: eng, sup: sup, booted: time.Now()}
	if ps, ok := eng.PersistStats(); ok {
		slot.warmHits = ps.Hits
	}
	return slot, nil
}

// replayInto reapplies reduced journal states to a fresh slot, returning
// the serve-ID → engine-ID mapping. Activation goes through the slot's
// supervisor (coalesced into one or two generations); probes whose final
// state is inactive are registered and then removed so later enables can
// find them. Individual failures (a poison probe re-quarantining itself)
// are tolerated — the probe stays registered, just not active.
func replayInto(ctx context.Context, slot *engineSlot, states []probeState, site *atomic.Int64) (map[int64]int, error) {
	engIDs := make(map[int64]int, len(states))
	type pending struct {
		id int64
		tk *core.Ticket
	}
	var adds, removes []pending
	for _, st := range states {
		engID, tk, err := slot.sup.AddProbeCtx(ctx, buildProbe(st.Spec, site.Add(1)))
		if err != nil {
			return nil, fmt.Errorf("replay add probe %d: %w", st.ID, err)
		}
		engIDs[st.ID] = engID
		adds = append(adds, pending{st.ID, tk})
	}
	for _, p := range adds {
		if _, err := p.tk.Wait(ctx); err != nil {
			return nil, fmt.Errorf("replay probe %d: %w", p.id, err)
		}
	}
	for _, st := range states {
		if st.Active {
			continue
		}
		tk, err := slot.sup.RemoveProbeCtx(ctx, engIDs[st.ID])
		if err != nil {
			continue // quarantined or racing; registration is what matters
		}
		removes = append(removes, pending{st.ID, tk})
	}
	for _, p := range removes {
		if _, err := p.tk.Wait(ctx); err != nil {
			return nil, fmt.Errorf("replay probe %d removal: %w", p.id, err)
		}
	}
	return engIDs, nil
}

// newShard builds the shard's first engine slot, replays the tenant-probe
// journal so probes survive process restarts, and starts the health
// watchdog. Zero paths mean the shard persists nothing.
func newShard(spec ShardSpec, paths persist.ShardPaths) (*shard, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("serve: shard needs a name")
	}
	m := spec.Module
	program := spec.Program
	if m == nil {
		prof, ok := progen.ByName(spec.Program)
		if !ok {
			return nil, fmt.Errorf("serve: shard %s: unknown program %q", spec.Name, spec.Program)
		}
		m = prof.Generate()
		program = prof.Name
	}
	spec.Watchdog = spec.Watchdog.withDefaults()
	sh := &shard{
		name:    spec.Name,
		program: program,
		spec:    spec,
		paths:   paths,
		module:  m,
		reg:     telemetry.NewRegistry(),
		probes:  map[int64]*probeRec{},
	}
	sh.metrics = newShardMetrics(sh.reg)
	for _, f := range m.Funcs {
		if !f.IsDecl() && len(f.Blocks) > 0 {
			sh.funcs = append(sh.funcs, f.Name)
		}
	}

	var replayOps []journalOp
	if paths.JournalPath != "" {
		j, ops, err := openProbeJournal(paths.JournalPath, spec.FaultHook)
		if err != nil {
			// A broken journal must not keep the shard down: serve without
			// one (probe state won't survive the next restart) and count it.
			sh.metrics.journalFallbacks.Inc()
		} else {
			sh.journal = j
			replayOps = ops
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), spec.Watchdog.BootTimeout)
	defer cancel()
	slot, err := sh.bootEngine(ctx)
	if err != nil {
		return nil, errors.Join(err, sh.journal.close())
	}
	if states := reduceJournal(replayOps); len(states) > 0 {
		engIDs, rerr := replayInto(ctx, slot, states, &sh.site)
		if rerr != nil {
			slot.sup.Close()
			slot.eng.Close()
			return nil, errors.Join(fmt.Errorf("serve: shard %s journal replay: %w", spec.Name, rerr), sh.journal.close())
		}
		for _, st := range states {
			sh.probes[st.ID] = &probeRec{Tenant: st.Tenant, Spec: st.Spec, EngID: engIDs[st.ID], Active: st.Active}
			sh.nextID = max(sh.nextID, st.ID)
		}
	}
	sh.slot = slot
	sh.lc = newLifecycle(sh, spec.Watchdog)
	return sh, nil
}

// current returns the serving slot without parking (nil while a swap is in
// flight with no slot installed). Introspection paths use it.
func (sh *shard) current() *engineSlot {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.slot
}

// acquire returns the serving slot, parking the caller while a failover
// swap is in flight: requests arriving during the window wait for the swap
// to complete (bounded by their own ctx) and are then re-admitted against
// the new slot — never dropped. A dead shard fails fast with ErrShardDead.
func (sh *shard) acquire(ctx context.Context) (*engineSlot, error) {
	parked := false
	for {
		sh.mu.Lock()
		if sh.deadErr != nil {
			err := sh.deadErr
			sh.mu.Unlock()
			return nil, err
		}
		if !sh.swapping && sh.slot != nil {
			slot := sh.slot
			sh.mu.Unlock()
			return slot, nil
		}
		gate := sh.gate
		sh.mu.Unlock()
		if !parked {
			parked = true
			sh.metrics.parked.Inc()
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// stale reports whether slot is no longer the serving slot (a swap started
// or completed since the caller acquired it) — the signal to park and
// re-admit instead of failing a request on the old engine's teardown.
func (sh *shard) stale(slot *engineSlot) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.swapping || sh.slot != slot
}

// beginSwap closes the admission gate: acquire parks until endSwap.
func (sh *shard) beginSwap() {
	sh.mu.Lock()
	sh.swapping = true
	sh.gate = make(chan struct{})
	sh.mu.Unlock()
}

// endSwap installs the new slot (nil keeps the old one, e.g. a failed
// recovery that will retry) and reopens the gate. engIDs is the serve-ID →
// engine-ID mapping the swap's replay produced; the ledger is rewritten to
// it under the same lock that installs the slot. The ledger cannot have
// moved since the swap read it: commit refuses every op while a swap is in
// flight, and the refused requests re-admit through the gate.
func (sh *shard) endSwap(slot *engineSlot, engIDs map[int64]int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if slot != nil {
		for id, engID := range engIDs {
			if rec := sh.probes[id]; rec != nil {
				rec.EngID = engID
			}
		}
		sh.slot = slot
	}
	sh.swapping = false
	if sh.gate != nil {
		close(sh.gate)
		sh.gate = nil
	}
}

// markDead records the terminal rung of the recovery ladder and unparks
// every waiter into the dead-shard fast path.
func (sh *shard) markDead(cause error) {
	sh.mu.Lock()
	sh.deadErr = fmt.Errorf("%w: %v", ErrShardDead, cause)
	sh.swapping = false
	if sh.gate != nil {
		close(sh.gate)
		sh.gate = nil
	}
	sh.mu.Unlock()
}

// lookupProbe resolves a serve-level probe ID to its record (copy).
func (sh *shard) lookupProbe(id int64) (probeRec, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.probes[id]
	if !ok {
		return probeRec{}, false
	}
	return *rec, true
}

// commit records op, which committed on slot as engine probe engID, and
// reports whether it counts. It counts only if slot is the serving slot and
// no swap is in flight — beginSwap takes the same lock — so every op a
// client sees succeed is in the ledger the next swap replays, under an
// engine ID of the serving slot. A refused op's request re-admits through
// the gate. A counted add gets its serve ID (written to op.ID) and a ledger
// record; add, enable and remove update the ledger and are journaled. A
// change or a sync (nil op) has no lasting state to record.
func (sh *shard) commit(slot *engineSlot, op *journalOp, engID int) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.swapping || sh.slot != slot {
		return false
	}
	if op == nil {
		return true
	}
	switch op.Op {
	case jopAdd:
		sh.nextID++
		op.ID = sh.nextID
		sh.probes[op.ID] = &probeRec{Tenant: op.Tenant, Spec: *op.Spec, EngID: engID, Active: true}
	case jopEnable, jopRemove:
		sh.probes[op.ID].Active = op.Op == jopEnable
	default:
		return true
	}
	sh.journal.append(*op)
	sh.metrics.journalAppends.Inc()
	return true
}

// ledgerStates reduces the in-memory probe ledger to replayable states (the
// same shape a journal reduction yields) — the source a restart replays.
func (sh *shard) ledgerStates() []probeState {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]probeState, 0, len(sh.probes))
	for id, rec := range sh.probes {
		out = append(out, probeState{ID: id, Tenant: rec.Tenant, Spec: rec.Spec, Active: rec.Active})
	}
	return out
}

// warmHits reports the serving slot's boot-time warm-hit count.
func (sh *shard) warmHits() uint64 {
	if slot := sh.current(); slot != nil {
		return slot.warmHits
	}
	return 0
}

// persistStats snapshots the serving slot's persist tier, nil when
// persistence is off or no slot is live.
func (sh *shard) persistStats() *persist.Stats {
	slot := sh.current()
	if slot == nil {
		return nil
	}
	ps, ok := slot.eng.PersistStats()
	if !ok {
		return nil
	}
	return &ps
}

// quickClose tears the shard down without draining — construction-failure
// cleanup.
func (sh *shard) quickClose() {
	if sh.lc != nil {
		sh.lc.stopWatchdog()
	}
	sh.mu.Lock()
	slot := sh.slot
	sh.slot = nil
	sh.mu.Unlock()
	if slot != nil {
		slot.sup.Close()
		slot.eng.Close()
	}
	if sh.journal.close() != nil {
		sh.metrics.journalFallbacks.Inc()
	}
}

// close stops the watchdog, drains the serving supervisor
// (bounded by ctx), and closes the engine, which writes the snapshot.
// Draining rather than closing means already-admitted tickets still commit
// before the snapshot is taken. If ctx expires the drain keeps running in
// the background and the engine is deliberately left open — tearing it down
// under an active rebuild would race; the exiting process reclaims it.
func (sh *shard) close(ctx context.Context) error {
	if sh.lc != nil {
		sh.lc.stopWatchdog()
	}
	var err error
	if slot := sh.current(); slot != nil {
		if err = slot.sup.Drain(ctx); err == nil {
			slot.eng.Close()
		}
	}
	return errors.Join(err, sh.journal.close())
}
