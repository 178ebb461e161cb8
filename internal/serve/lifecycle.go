package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"odin/internal/telemetry"
)

// The shard lifecycle manager makes a shard self-healing. A per-shard
// watchdog samples Supervisor.Health on an interval and classifies the
// shard; when it turns wedged the recovery ladder runs:
//
//  1. restart in place — abandon the wedged slot, close its engine, boot a
//     fresh one warm from the persist snapshot + object cache, replay the
//     probe ledger; retried with exponential backoff up to RestartAttempts;
//  2. dead — fail fast with 503 + Retry-After until an operator intervenes.
//
// Requests arriving during a swap park on the shard gate and re-admit
// against the new slot; they are delayed by the failover window, never
// dropped.

// ShardState is the watchdog's classification of a shard.
type ShardState int

const (
	// ShardHealthy: serving, breaker closed or only transiently open.
	ShardHealthy ShardState = iota
	// ShardDegraded: serving but impaired — breaker open past the grace
	// window.
	ShardDegraded
	// ShardWedged: not making progress (stuck queue, overrun generation,
	// loop panic, breaker pinned open); recovery ladder is about to run.
	ShardWedged
	// ShardRecovering: a restart is in flight.
	ShardRecovering
	// ShardDead: recovery ladder exhausted; terminal until operator action.
	ShardDead
)

func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardDegraded:
		return "degraded"
	case ShardWedged:
		return "wedged"
	case ShardRecovering:
		return "recovering"
	case ShardDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// WatchdogOptions tunes the health watchdog and recovery ladder.
type WatchdogOptions struct {
	// Interval between health samples. Default 500ms.
	Interval time.Duration
	// StuckQueueAge: a ticket queued longer than this with no generation
	// completing marks the shard wedged. Default 30s.
	StuckQueueAge time.Duration
	// GenDeadline: a single generation running longer than this marks the
	// shard wedged (the engine loop is stuck inside a rebuild). Default 60s.
	GenDeadline time.Duration
	// BreakerOpenGrace: breaker open longer than this is degraded. Default 5s.
	BreakerOpenGrace time.Duration
	// BreakerWedgeAfter: breaker open longer than this is wedged — backoff
	// is no longer converging. Default 30s.
	BreakerWedgeAfter time.Duration
	// RestartAttempts bounds restart-in-place tries before the shard is
	// marked dead. A value <= 0 means the default (2).
	RestartAttempts int
	// RestartBackoff is the delay before the first restart retry, doubling
	// up to RestartMaxBackoff. Defaults 250ms / 5s.
	RestartBackoff    time.Duration
	RestartMaxBackoff time.Duration
	// BootTimeout bounds a replacement engine's boot build (warm starts are
	// fast; a cold rebuild of a large module is not). Default 2m.
	BootTimeout time.Duration
	// Disable turns the watchdog off (tests drive recovery manually).
	Disable bool
}

func (o WatchdogOptions) withDefaults() WatchdogOptions {
	if o.Interval <= 0 {
		o.Interval = 500 * time.Millisecond
	}
	if o.StuckQueueAge <= 0 {
		o.StuckQueueAge = 30 * time.Second
	}
	if o.GenDeadline <= 0 {
		o.GenDeadline = 60 * time.Second
	}
	if o.BreakerOpenGrace <= 0 {
		o.BreakerOpenGrace = 5 * time.Second
	}
	if o.BreakerWedgeAfter <= 0 {
		o.BreakerWedgeAfter = 30 * time.Second
	}
	if o.RestartAttempts <= 0 {
		o.RestartAttempts = 2
	}
	if o.RestartBackoff <= 0 {
		o.RestartBackoff = 250 * time.Millisecond
	}
	if o.RestartMaxBackoff <= 0 {
		o.RestartMaxBackoff = 5 * time.Second
	}
	if o.BootTimeout <= 0 {
		o.BootTimeout = 2 * time.Minute
	}
	return o
}

// FailoverEvent records one completed restart in place.
type FailoverEvent struct {
	// DurationMS is the unavailability window: beginSwap to endSwap.
	DurationMS float64 `json:"duration_ms"`
	// At is when the event completed (unix seconds).
	At int64 `json:"at"`
	// Cause is the health condition that triggered the ladder.
	Cause string `json:"cause"`
}

// maxFailoverEvents bounds the per-shard event ring.
const maxFailoverEvents = 32

// Serve-layer lifecycle metric families (per-shard registries).
const (
	MetricShardState       = "odin_serve_shard_state"
	MetricRestarts         = "odin_serve_restarts_total"
	MetricFailoverSeconds  = "odin_serve_failover_seconds"
	MetricParked           = "odin_serve_parked_total"
	MetricJournalAppends   = "odin_serve_journal_appends_total"
	MetricJournalFallbacks = "odin_serve_journal_fallbacks_total"
)

// shardMetrics holds the lifecycle metric handles on the shard registry.
// The registry is reused across engine instances, so these accumulate
// across restarts.
type shardMetrics struct {
	restarts         *telemetry.Counter
	failoverSeconds  *telemetry.Histogram
	parked           *telemetry.Counter
	journalAppends   *telemetry.Counter
	journalFallbacks *telemetry.Counter
}

func newShardMetrics(reg *telemetry.Registry) *shardMetrics {
	reg.Describe(MetricShardState, "Watchdog classification of the shard (0 healthy .. 4 dead).")
	reg.Describe(MetricRestarts, "Engine restarts in place performed by the recovery ladder.")
	reg.Describe(MetricFailoverSeconds, "Unavailability window of each failover swap.")
	reg.Describe(MetricParked, "Requests parked on the shard gate during a failover swap.")
	reg.Describe(MetricJournalAppends, "Probe operations appended to the tenant-probe journal.")
	reg.Describe(MetricJournalFallbacks, "Journal opens or appends abandoned after persistent failure, and journal closes whose flush failed.")
	return &shardMetrics{
		restarts:         reg.Counter(MetricRestarts),
		failoverSeconds:  reg.Histogram(MetricFailoverSeconds, nil),
		parked:           reg.Counter(MetricParked),
		journalAppends:   reg.Counter(MetricJournalAppends),
		journalFallbacks: reg.Counter(MetricJournalFallbacks),
	}
}

// lifecycle is the per-shard health watchdog + recovery ladder.
type lifecycle struct {
	sh   *shard
	opts WatchdogOptions

	mu         sync.Mutex
	state      ShardState
	lastPanics uint64
	events     []FailoverEvent
	recovering bool

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

func newLifecycle(sh *shard, opts WatchdogOptions) *lifecycle {
	lc := &lifecycle{
		sh:     sh,
		opts:   opts,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	// The state gauge rebinds nothing on restart: it reads lc, which
	// outlives every engine instance.
	sh.reg.GaugeFunc(MetricShardState, func() int64 { return int64(lc.State()) })
	if opts.Disable {
		close(lc.done)
		return lc
	}
	go lc.watch()
	return lc
}

func (lc *lifecycle) stopWatchdog() {
	lc.stopOnce.Do(func() { close(lc.stopCh) })
	<-lc.done
}

// State returns the current classification.
func (lc *lifecycle) State() ShardState {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.state
}

// Events returns a copy of the failover event ring, newest last.
func (lc *lifecycle) Events() []FailoverEvent {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make([]FailoverEvent, len(lc.events))
	copy(out, lc.events)
	return out
}

func (lc *lifecycle) recordEvent(ev FailoverEvent) {
	lc.mu.Lock()
	lc.events = append(lc.events, ev)
	if len(lc.events) > maxFailoverEvents {
		lc.events = lc.events[len(lc.events)-maxFailoverEvents:]
	}
	lc.mu.Unlock()
}

func (lc *lifecycle) watch() {
	defer close(lc.done)
	tick := time.NewTicker(lc.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-lc.stopCh:
			return
		case <-tick.C:
		}
		if lc.State() == ShardDead {
			return
		}
		state, cause := lc.classify()
		lc.mu.Lock()
		if lc.recovering {
			lc.mu.Unlock()
			continue
		}
		lc.state = state
		wedged := state == ShardWedged
		if wedged {
			lc.state = ShardRecovering
			lc.recovering = true
		}
		lc.mu.Unlock()
		if wedged {
			lc.runLadder(cause)
		}
	}
}

// classify samples the serving supervisor's health and maps it to a shard
// state. The panic counter is compared against the last sample so a single
// loop panic (recovered, batch failed, breaker tripped) wedges the shard at
// most once per occurrence.
func (lc *lifecycle) classify() (ShardState, string) {
	slot := lc.sh.current()
	if slot == nil {
		return ShardWedged, "no serving slot"
	}
	h := slot.sup.Health()
	lc.mu.Lock()
	lastPanics := lc.lastPanics
	lc.lastPanics = h.LoopPanics
	lc.mu.Unlock()
	switch {
	case h.LoopPanics > lastPanics:
		return ShardWedged, fmt.Sprintf("engine loop panicked (%d total)", h.LoopPanics)
	case h.GenInFlight && h.GenRunningFor > lc.opts.GenDeadline:
		return ShardWedged, fmt.Sprintf("generation running %s (deadline %s)", h.GenRunningFor.Round(time.Millisecond), lc.opts.GenDeadline)
	case h.OldestQueuedAge > lc.opts.StuckQueueAge:
		return ShardWedged, fmt.Sprintf("ticket queued %s (limit %s)", h.OldestQueuedAge.Round(time.Millisecond), lc.opts.StuckQueueAge)
	case h.Breaker == "open" && h.BreakerOpenFor > lc.opts.BreakerWedgeAfter:
		return ShardWedged, fmt.Sprintf("breaker open %s (limit %s)", h.BreakerOpenFor.Round(time.Millisecond), lc.opts.BreakerWedgeAfter)
	case h.Breaker == "open" && h.BreakerOpenFor > lc.opts.BreakerOpenGrace:
		return ShardDegraded, fmt.Sprintf("breaker open %s", h.BreakerOpenFor.Round(time.Millisecond))
	}
	return ShardHealthy, ""
}

// runLadder executes the recovery ladder for one wedge event: bounded
// restarts in place with exponential backoff, then dead.
func (lc *lifecycle) runLadder(cause string) {
	defer func() {
		lc.mu.Lock()
		lc.recovering = false
		if lc.state == ShardRecovering {
			lc.state = ShardHealthy
		}
		lc.mu.Unlock()
	}()

	backoff := lc.opts.RestartBackoff
	for attempt := 0; attempt < lc.opts.RestartAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-lc.stopCh:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > lc.opts.RestartMaxBackoff {
				backoff = lc.opts.RestartMaxBackoff
			}
		}
		if err := lc.restartInPlace(cause); err == nil {
			return
		}
	}
	lc.sh.markDead(fmt.Errorf("%s; restarts failed", cause))
	lc.mu.Lock()
	lc.state = ShardDead
	lc.mu.Unlock()
}

// restartInPlace abandons the wedged slot, closes its engine, and boots a
// replacement warm from the persist snapshot + cache, replaying the probe
// ledger so every registered probe survives. It never waits on the wedged
// loop: the watchdog has already judged it stuck.
func (lc *lifecycle) restartInPlace(cause string) error {
	sh := lc.sh
	start := time.Now()
	sh.beginSwap()
	ok := false
	defer func() {
		if !ok {
			sh.endSwap(nil, nil)
		}
	}()

	if old := sh.current(); old != nil {
		// Abandon, not Close or Drain: both wait on the wedged loop.
		// Whatever the abandoned generation and its queued tickets resolve
		// with once the loop unsticks — a late commit included — comes from
		// a slot that no longer serves, so the request re-admits against
		// the new slot (Server.request) and commits there.
		old.sup.Abandon()
		// Engine.Close is safe against an in-flight rebuild; it saves the
		// snapshot and releases the persist writer lock so the replacement
		// can take it.
		old.eng.Close()
	}

	bootCtx, cancel := context.WithTimeout(context.Background(), lc.opts.BootTimeout)
	defer cancel()
	slot, err := sh.bootEngine(bootCtx)
	if err != nil {
		return err
	}
	engIDs, err := replayInto(bootCtx, slot, sh.ledgerStates(), &sh.site)
	if err != nil {
		slot.sup.Close()
		slot.eng.Close()
		return err
	}
	sh.endSwap(slot, engIDs)
	ok = true

	d := time.Since(start)
	sh.metrics.restarts.Inc()
	sh.metrics.failoverSeconds.Observe(d)
	lc.recordEvent(FailoverEvent{DurationMS: float64(d) / float64(time.Millisecond), At: time.Now().Unix(), Cause: cause})
	return nil
}
