package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odin/internal/link"
)

// Supervisor errors surfaced on the admission path or on tickets.
var (
	// ErrQueueFull reports that the bounded admission queue rejected a
	// non-blocking request; callers shed load or retry with the *Ctx
	// blocking variants.
	ErrQueueFull = errors.New("core: supervisor admission queue full")
	// ErrCircuitOpen reports that the circuit breaker is open after too
	// many consecutive failed rebuild generations; requests fail fast
	// until the half-open trial succeeds.
	ErrCircuitOpen = errors.New("core: supervisor circuit breaker open")
	// ErrSupervisorClosed reports that Close or Drain stopped admission;
	// tickets still queued at Close time resolve with this error.
	ErrSupervisorClosed = errors.New("core: supervisor closed")
	// ErrEngineUnhealthy reports that a failed generation's control
	// rebuild — the already-committed probe set, with the batch rolled
	// back — failed too: the engine, not the batch, is at fault. Every
	// request of the generation resolves with it, wrapped around the
	// generation's own error; none is quarantined, and a retry may
	// commit once the engine recovers.
	ErrEngineUnhealthy = errors.New("core: engine failed its control rebuild")
)

// ProbeQuarantinedError reports that poison-probe bisection isolated this
// probe as the cause of a failed rebuild generation and quarantined it: the
// request was rolled back, the remaining co-batched requests committed, and
// further Enable/MarkChanged requests for the probe fail fast until a
// successful Remove clears the quarantine.
type ProbeQuarantinedError struct {
	ProbeID int
	Cause   error
}

func (e *ProbeQuarantinedError) Error() string {
	return fmt.Sprintf("core: probe %d quarantined: %v", e.ProbeID, e.Cause)
}

func (e *ProbeQuarantinedError) Unwrap() error { return e.Cause }

// BreakerState is the circuit breaker's state, exported as the
// odin_supervisor_breaker_state gauge (0 closed, 1 half-open, 2 open).
type BreakerState int32

// Breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

func (b BreakerState) String() string {
	switch b {
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "closed"
}

// SupervisorOptions configures a Supervisor. The zero value is usable:
// every field has a production-safe default.
type SupervisorOptions struct {
	// QueueDepth bounds the admission queue (default 256). When full,
	// non-blocking requests fail with ErrQueueFull; blocking variants wait
	// for space or context cancellation.
	QueueDepth int
	// BreakerThreshold is K: consecutive generations whose control rebuild
	// failed (the engine could not rebuild even the committed probe set)
	// before the breaker opens (default 3).
	BreakerThreshold int
	// BreakerBackoff is the initial open interval before a half-open
	// trial (default 100ms). A failed trial reopens with the backoff
	// doubled, capped at BreakerMaxBackoff.
	BreakerBackoff time.Duration
	// BreakerMaxBackoff caps the exponential reopen backoff (default 5s).
	BreakerMaxBackoff time.Duration
}

func (o SupervisorOptions) withDefaults() SupervisorOptions {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerBackoff <= 0 {
		o.BreakerBackoff = 100 * time.Millisecond
	}
	if o.BreakerMaxBackoff <= 0 {
		o.BreakerMaxBackoff = 5 * time.Second
	}
	return o
}

// TicketResult is what a Ticket resolves to: the outcome of the rebuild
// generation that carried the request.
type TicketResult struct {
	// Gen is the generation number that resolved this request (1-based;
	// 0 when the request never reached a generation, e.g. at shutdown).
	Gen uint64
	// Exe is the executable in effect after the generation — the freshly
	// committed image on success, the last-good image on failure.
	Exe *link.Executable
	// Stats describes the rebuild that committed this request; nil when
	// the request did not commit.
	Stats *RebuildStats
	// Coalesced is how many requests shared the rebuild that resolved
	// this one (the whole generation batch, or the bisection subset the
	// request committed with).
	Coalesced int
	// Salvaged records that the whole generation failed first and this
	// request committed through poison-probe bisection.
	Salvaged bool
	// Err is nil when the request committed; otherwise the shutdown
	// error, a *ProbeQuarantinedError, an ErrEngineUnhealthy wrapping the
	// generation failure, or (for Sync) the generation failure.
	Err error
}

// Ticket is a caller's handle on one enqueued probe request. It resolves
// exactly once, when the rebuild loop commits, quarantines, or abandons the
// request.
type Ticket struct {
	done     chan struct{}
	res      TicketResult
	resolved atomic.Bool
}

func newTicket() *Ticket { return &Ticket{done: make(chan struct{})} }

// resolve publishes the result; the first caller wins. It reports whether
// this call resolved the ticket.
func (t *Ticket) resolve(res TicketResult) bool {
	if !t.resolved.CompareAndSwap(false, true) {
		return false
	}
	t.res = res
	close(t.done)
	return true
}

// Done returns a channel closed when the ticket resolves.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the ticket resolves or ctx is done.
func (t *Ticket) Wait(ctx context.Context) (TicketResult, error) {
	select {
	case <-t.done:
		return t.res, nil
	case <-ctx.Done():
		return TicketResult{}, ctx.Err()
	}
}

// Result returns the resolution non-blockingly; ok is false while the
// request is still queued or in flight.
func (t *Ticket) Result() (res TicketResult, ok bool) {
	select {
	case <-t.done:
		return t.res, true
	default:
		return TicketResult{}, false
	}
}

type reqKind int

const (
	reqEnable reqKind = iota
	reqRemove
	reqChange
	reqSync
)

type request struct {
	kind     reqKind
	probeID  int
	t        *Ticket
	enqueued time.Time
	// flipped records whether the most recent applyReq actually changed the
	// probe's activation state. unapplyReq inverts only real flips: undoing
	// a redundant no-op request (enable of an already-active probe) would
	// corrupt state some earlier generation committed.
	flipped bool
}

// Supervisor owns an Engine and serializes all probe traffic through one
// rebuild loop, making the engine safe for many concurrent — possibly
// hostile — callers. Requests enter a bounded admission queue; the loop
// drains and coalesces everything pending into one rebuild generation
// (N probe toggles → 1 rebuild); when a generation fails, a control
// rebuild of the committed probe set tells a sick engine (fail the batch as
// retryable, charge the circuit breaker, which fails requests fast after K
// such generations) from a poison batch (bisection isolates and
// quarantines the offending probes so the co-batched healthy requests still
// commit) — the engine's degradation ladder extended from fragments to
// probes.
//
// While a Supervisor owns an engine, all probe changes must go through it;
// calling Engine.Schedule/Rebuild or mutating the PatchManager directly
// alongside a live Supervisor is a caller error.
type Supervisor struct {
	eng  *Engine
	opts SupervisorOptions

	queue    chan *request
	stop     chan struct{}
	loopDone chan struct{}

	// admitMu serializes admission against shutdown: submitters hold the
	// read side across the closing-check + enqueue, Close/Drain hold the
	// write side to set closing before closing stop. A request therefore
	// either lands in the queue before the final drain or is rejected —
	// no ticket is ever lost.
	admitMu   sync.RWMutex
	closing   bool
	drainMode bool

	// mu guards the breaker, generation counter, and quarantine set.
	mu          sync.Mutex
	state       BreakerState
	consecFails int
	backoff     time.Duration
	reopenAt    time.Time
	openSince   time.Time
	gen         uint64
	quarantined map[int]error

	// pendMu guards pending, a FIFO of enqueue timestamps mirroring the
	// admission queue so Health can report the oldest queued request's age
	// without draining the channel. Pushes and pops are count-balanced with
	// channel sends and receives; ordering between concurrent submitters is
	// approximate, which is fine for health introspection.
	pendMu  sync.Mutex
	pending []time.Time

	// Health bookkeeping: wall-clock of the last committed generation, the
	// in-flight generation's start (0 when the loop is idle), and how many
	// generations ended in a panic the loop had to absorb.
	lastCommitNS atomic.Int64
	genStartNS   atomic.Int64
	nLoopPanics  atomic.Uint64

	// Monotonic counters, sampled by the telemetry gauges and Stats.
	nRequests       atomic.Uint64
	nRejectedFull   atomic.Uint64
	nRejectedOpen   atomic.Uint64
	nGenerations    atomic.Uint64
	nGenFailures    atomic.Uint64
	nBisectRebuilds atomic.Uint64
	nCoalesced      atomic.Uint64
	nTransitions    atomic.Uint64
	nDoubleResolves atomic.Uint64

	sm supervisorMetrics
}

// Supervise wraps the engine in a new Supervisor and starts its rebuild
// loop. The supervisor registers its telemetry families on the engine's
// registry (a no-op when telemetry is off).
func Supervise(e *Engine, opts SupervisorOptions) *Supervisor {
	opts = opts.withDefaults()
	s := &Supervisor{
		eng:         e,
		opts:        opts,
		queue:       make(chan *request, opts.QueueDepth),
		stop:        make(chan struct{}),
		loopDone:    make(chan struct{}),
		backoff:     opts.BreakerBackoff,
		quarantined: map[int]error{},
	}
	// Seed the breaker and quarantine from a restored engine snapshot (if
	// any) before the loop starts, and register the state-capture callback
	// so Engine.SaveSnapshot includes live supervisor state from now on.
	s.restoreSupervisorState(e.takeRestoredSupervisor())
	e.registerSupervisorState(s.persistState)
	s.sm = newSupervisorMetrics(e.Telemetry(), s)
	go s.loop()
	return s
}

// Engine returns the supervised engine for read-only introspection
// (Executable, Snapshot, Telemetry). Mutating it directly bypasses the
// supervisor's serialization.
func (s *Supervisor) Engine() *Engine { return s.eng }

// AddProbe registers a new probe and enqueues its activation, returning the
// probe ID and the generation ticket. The probe stays inactive until its
// generation commits. Fails fast with ErrQueueFull under backpressure.
func (s *Supervisor) AddProbe(p Probe) (int, *Ticket, error) {
	return s.addProbe(nil, p, false)
}

// AddProbeCtx is AddProbe with blocking admission: a full queue waits for
// space or ctx cancellation instead of failing fast.
func (s *Supervisor) AddProbeCtx(ctx context.Context, p Probe) (int, *Ticket, error) {
	return s.addProbe(ctx, p, true)
}

func (s *Supervisor) addProbe(ctx context.Context, p Probe, blocking bool) (int, *Ticket, error) {
	id := s.eng.Manager.AddInactive(p)
	t, err := s.submit(ctx, reqEnable, id, blocking)
	if err != nil {
		// The probe never activated and its admission was rejected;
		// forget the registration so rejected storms cannot leak entries.
		s.eng.Manager.discard(id)
		return 0, nil, err
	}
	return id, t, nil
}

// EnableProbe enqueues re-activation of a previously added (and since
// removed) probe.
func (s *Supervisor) EnableProbe(id int) (*Ticket, error) {
	return s.submit(nil, reqEnable, id, false)
}

// EnableProbeCtx is EnableProbe with blocking admission.
func (s *Supervisor) EnableProbeCtx(ctx context.Context, id int) (*Ticket, error) {
	return s.submit(ctx, reqEnable, id, true)
}

// RemoveProbe enqueues deactivation of a probe. A committed removal clears
// the probe's quarantine, if any.
func (s *Supervisor) RemoveProbe(id int) (*Ticket, error) {
	return s.submit(nil, reqRemove, id, false)
}

// RemoveProbeCtx is RemoveProbe with blocking admission.
func (s *Supervisor) RemoveProbeCtx(ctx context.Context, id int) (*Ticket, error) {
	return s.submit(ctx, reqRemove, id, true)
}

// MarkChanged enqueues re-instrumentation of a probe whose logic changed.
func (s *Supervisor) MarkChanged(id int) (*Ticket, error) {
	return s.submit(nil, reqChange, id, false)
}

// MarkChangedCtx is MarkChanged with blocking admission.
func (s *Supervisor) MarkChangedCtx(ctx context.Context, id int) (*Ticket, error) {
	return s.submit(ctx, reqChange, id, true)
}

// Sync enqueues a no-op request whose ticket resolves with the next
// generation's result — a barrier over everything enqueued before it, and
// the way to drive an initial build through the supervisor.
func (s *Supervisor) Sync() (*Ticket, error) {
	return s.submit(nil, reqSync, -1, false)
}

// SyncCtx is Sync with blocking admission.
func (s *Supervisor) SyncCtx(ctx context.Context) (*Ticket, error) {
	return s.submit(ctx, reqSync, -1, true)
}

// submit runs the admission path: quarantine fast-fail, breaker fast-fail,
// then the bounded enqueue.
func (s *Supervisor) submit(ctx context.Context, kind reqKind, probeID int, blocking bool) (*Ticket, error) {
	if kind == reqEnable || kind == reqChange {
		s.mu.Lock()
		cause, q := s.quarantined[probeID]
		s.mu.Unlock()
		if q {
			return nil, &ProbeQuarantinedError{ProbeID: probeID, Cause: cause}
		}
	}
	if err := s.breakerAdmit(); err != nil {
		s.nRejectedOpen.Add(1)
		return nil, err
	}
	r := &request{kind: kind, probeID: probeID, t: newTicket(), enqueued: time.Now()}
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.closing {
		return nil, ErrSupervisorClosed
	}
	// Mirror the enqueue into the health FIFO before the channel send so the
	// loop's pop can never observe a send without its timestamp; a rejected
	// send withdraws the mirror entry.
	s.pushPending(r.enqueued)
	if blocking {
		if ctx == nil {
			ctx = context.Background()
		}
		select {
		case s.queue <- r:
		case <-ctx.Done():
			s.unpushPending()
			return nil, ctx.Err()
		}
	} else {
		select {
		case s.queue <- r:
		default:
			s.unpushPending()
			s.nRejectedFull.Add(1)
			return nil, ErrQueueFull
		}
	}
	s.nRequests.Add(1)
	return r.t, nil
}

// pushPending/unpushPending/popPending maintain the enqueue-timestamp FIFO
// behind Health's oldest-queued-age reading.
func (s *Supervisor) pushPending(t time.Time) {
	s.pendMu.Lock()
	s.pending = append(s.pending, t)
	s.pendMu.Unlock()
}

func (s *Supervisor) unpushPending() {
	s.pendMu.Lock()
	if n := len(s.pending); n > 0 {
		s.pending = s.pending[:n-1]
	}
	s.pendMu.Unlock()
}

func (s *Supervisor) popPending() {
	s.pendMu.Lock()
	if len(s.pending) > 0 {
		s.pending = s.pending[1:]
	}
	s.pendMu.Unlock()
}

func (s *Supervisor) oldestPending() time.Duration {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	if len(s.pending) == 0 {
		return 0
	}
	return time.Since(s.pending[0])
}

// breakerAdmit fails fast while the breaker is open, transitioning to
// half-open once the backoff has elapsed so the next generation runs as the
// trial.
func (s *Supervisor) breakerAdmit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != BreakerOpen {
		return nil
	}
	if time.Now().Before(s.reopenAt) {
		return ErrCircuitOpen
	}
	s.setStateLocked(BreakerHalfOpen)
	return nil
}

// BreakerRetryAfter reports how long callers should wait before retrying
// while the breaker is open: the time remaining until the half-open trial
// is allowed, rounded up to a whole second (the HTTP Retry-After grain),
// with a 1s floor. It returns 0 when the breaker is closed or half-open,
// letting serving layers map "non-zero" directly to a 503 + Retry-After.
func (s *Supervisor) BreakerRetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != BreakerOpen {
		return 0
	}
	wait := time.Until(s.reopenAt)
	if wait <= 0 {
		// Backoff elapsed: the next admission flips to half-open, so a
		// retry is worthwhile immediately; report the minimum grain.
		return time.Second
	}
	if rem := wait % time.Second; rem != 0 {
		wait += time.Second - rem
	}
	return wait
}

// Close stops admission, lets the in-flight generation finish, resolves
// every still-queued ticket with ErrSupervisorClosed, and waits for the
// rebuild loop to exit. Close is idempotent.
func (s *Supervisor) Close() error {
	s.shutdown(false)
	<-s.loopDone
	// Best-effort state persistence: breaker and quarantine survive the
	// restart when the engine has a snapshot path configured.
	s.eng.SaveSnapshot()
	return nil
}

// Drain stops admission and processes everything already queued to
// completion (coalesced into generations as usual), then stops the loop.
// It returns when the loop has exited or ctx is done; on ctx expiry the
// loop keeps draining in the background. While the breaker is open, Drain
// runs the half-open trial immediately rather than sleeping out the
// backoff.
func (s *Supervisor) Drain(ctx context.Context) error {
	s.shutdown(true)
	select {
	case <-s.loopDone:
		// The queue is fully processed: persist breaker and quarantine
		// state before reporting the drain complete, so a restart sees the
		// supervisor exactly as it ended.
		s.eng.SaveSnapshot()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Abandon stops admission and returns without waiting on the loop: the
// in-flight generation finishes (or stays stuck) on its own, and queued
// tickets then resolve with ErrSupervisorClosed. Unlike Close it never
// saves a snapshot — the recovery path for a loop already judged wedged.
func (s *Supervisor) Abandon() {
	s.shutdown(false)
}

func (s *Supervisor) shutdown(drain bool) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.closing {
		return
	}
	s.closing = true
	s.drainMode = drain
	close(s.stop)
}

// loop is the single rebuild goroutine: block for the first request, drain
// and coalesce everything else pending, honor the breaker, run the
// generation.
func (s *Supervisor) loop() {
	defer close(s.loopDone)
	for {
		// Check stop with priority: a two-way select against a non-empty
		// queue picks randomly, and once Close was called no new generation
		// may start outside finalDrain's control.
		select {
		case <-s.stop:
			s.finalDrain()
			return
		default:
		}
		var first *request
		select {
		case first = <-s.queue:
			s.popPending()
		case <-s.stop:
			s.finalDrain()
			return
		}
		batch := s.coalesce(first)
		if !s.awaitBreaker() {
			s.failBatch(batch, ErrSupervisorClosed)
			s.finalDrain()
			return
		}
		s.runGenerationSafe(batch)
	}
}

// coalesce drains the queue without blocking, bounding the batch at the
// queue depth so a sustained storm cannot grow one generation unboundedly.
func (s *Supervisor) coalesce(first *request) []*request {
	batch := []*request{first}
	for len(batch) < s.opts.QueueDepth {
		select {
		case r := <-s.queue:
			s.popPending()
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// awaitBreaker sleeps out an open breaker's backoff before the half-open
// trial. It returns false when the supervisor stopped in discard mode and
// the pending batch should be failed instead of tried.
func (s *Supervisor) awaitBreaker() bool {
	for {
		s.mu.Lock()
		if s.state != BreakerOpen {
			s.mu.Unlock()
			return true
		}
		wait := time.Until(s.reopenAt)
		if wait <= 0 {
			s.setStateLocked(BreakerHalfOpen)
			s.mu.Unlock()
			return true
		}
		s.mu.Unlock()
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-s.stop:
			timer.Stop()
			if !s.drainMode {
				return false
			}
			// Draining: run the trial now instead of sleeping out the
			// backoff.
			s.mu.Lock()
			if s.state == BreakerOpen {
				s.setStateLocked(BreakerHalfOpen)
			}
			s.mu.Unlock()
			return true
		}
	}
}

// finalDrain empties the queue after stop: in drain mode remaining requests
// still run as generations; otherwise their tickets resolve with
// ErrSupervisorClosed.
func (s *Supervisor) finalDrain() {
	for {
		select {
		case r := <-s.queue:
			s.popPending()
			if s.drainMode {
				batch := s.coalesce(r)
				if s.awaitBreaker() {
					s.runGenerationSafe(batch)
				} else {
					s.failBatch(batch, ErrSupervisorClosed)
				}
			} else {
				s.resolveTicket(r, TicketResult{Exe: s.eng.Executable(), Err: ErrSupervisorClosed})
			}
		default:
			return
		}
	}
}

func (s *Supervisor) failBatch(batch []*request, err error) {
	for _, r := range batch {
		s.resolveTicket(r, TicketResult{Exe: s.eng.Executable(), Err: err})
	}
}

// resolveTicket publishes a request's result exactly once and records its
// end-to-end latency.
func (s *Supervisor) resolveTicket(r *request, res TicketResult) {
	if !r.t.resolve(res) {
		// A ticket resolving twice is a supervisor bug; count it loudly
		// rather than corrupting the caller's view.
		s.nDoubleResolves.Add(1)
		return
	}
	s.sm.ticketDur.Observe(time.Since(r.enqueued))
}

// runGenerationSafe shields the rebuild loop from a panicking generation:
// tryRebuild already runs its hooks under capture, but a panic anywhere
// else in the generation path (apply/rollback bookkeeping, a corrupted
// engine) would otherwise kill the loop goroutine and wedge every queued
// ticket forever. The recover fails the batch, counts the panic for
// Health, and charges the breaker — the watchdog's signal to escalate.
func (s *Supervisor) runGenerationSafe(batch []*request) {
	defer func() {
		if r := recover(); r != nil {
			s.nLoopPanics.Add(1)
			s.failBatch(batch, fmt.Errorf("core: supervisor generation panic: %v", r))
			s.breakerFailure()
		}
		s.genStartNS.Store(0)
	}()
	s.genStartNS.Store(time.Now().UnixNano())
	s.runGeneration(batch)
}

// runGeneration applies the whole batch, rebuilds once, and on failure
// rolls back, asks a control rebuild whether the engine or the batch is at
// fault, and in the batch's case bisects to isolate the poison requests.
func (s *Supervisor) runGeneration(batch []*request) {
	start := time.Now()
	s.mu.Lock()
	s.gen++
	gen := s.gen
	s.mu.Unlock()
	s.nGenerations.Add(1)
	s.nCoalesced.Add(uint64(len(batch)))
	for _, r := range batch {
		s.sm.queueAge.Observe(start.Sub(r.enqueued))
	}

	for _, r := range batch {
		s.applyReq(r)
	}
	exe, st, err := s.tryRebuild()
	if err == nil {
		for _, r := range batch {
			s.commitCleanup(r)
			s.resolveTicket(r, TicketResult{Gen: gen, Exe: exe, Stats: st, Coalesced: len(batch)})
		}
		s.breakerSuccess()
		return
	}

	// The generation failed whole. Roll every request back (reverse order
	// restores the pre-generation probe state even under conflicting
	// toggles of the same probe).
	s.nGenFailures.Add(1)
	for i := len(batch) - 1; i >= 0; i-- {
		s.unapplyReq(batch[i])
	}
	// The control rebuild of the already-committed probe set separates
	// "the engine failed" from "the batch failed". An engine that cannot
	// rebuild what it already runs charges the breaker and fails every
	// request as retryable, quarantining nobody; poison is contained by
	// quarantine, never by the breaker every caller shares.
	if _, _, cerr := s.tryRebuild(); cerr != nil {
		for _, r := range batch {
			s.resolveTicket(r, TicketResult{Gen: gen, Exe: s.eng.Executable(),
				Err: fmt.Errorf("%w: %w", ErrEngineUnhealthy, err)})
		}
		s.breakerFailure()
		return
	}
	s.breakerSuccess()
	// Bisect contiguous halves: bisection preserves the batch's relative
	// order, so the committed subsequence is one a serial caller could have
	// produced.
	s.bisect(batch, err, gen)
}

// bisect isolates the poison requests of a failed generation: subsets that
// rebuild cleanly commit (and resolve their tickets), single requests that
// still fail are quarantined.
func (s *Supervisor) bisect(reqs []*request, genErr error, gen uint64) {
	var rec func(sub []*request, known error)
	rec = func(sub []*request, known error) {
		if len(sub) == 0 {
			return
		}
		if known == nil {
			for _, r := range sub {
				s.applyReq(r)
			}
			s.nBisectRebuilds.Add(1)
			exe, st, err := s.tryRebuild()
			if err == nil {
				for _, r := range sub {
					s.commitCleanup(r)
					s.resolveTicket(r, TicketResult{Gen: gen, Exe: exe, Stats: st, Coalesced: len(sub), Salvaged: true})
				}
				return
			}
			for i := len(sub) - 1; i >= 0; i-- {
				s.unapplyReq(sub[i])
			}
			known = err
		}
		if len(sub) == 1 {
			s.quarantineReq(sub[0], known, gen)
			return
		}
		mid := len(sub) / 2
		rec(sub[:mid], nil)
		rec(sub[mid:], nil)
	}
	rec(reqs, genErr)
}

// quarantineReq records a poison probe and resolves its ticket with a
// *ProbeQuarantinedError. Sync requests carry no probe; they resolve with
// the generation failure itself.
func (s *Supervisor) quarantineReq(r *request, cause error, gen uint64) {
	if r.kind == reqSync {
		s.resolveTicket(r, TicketResult{Gen: gen, Exe: s.eng.Executable(), Err: cause})
		return
	}
	s.mu.Lock()
	if _, dup := s.quarantined[r.probeID]; !dup {
		s.quarantined[r.probeID] = cause
	}
	s.mu.Unlock()
	s.resolveTicket(r, TicketResult{Gen: gen, Exe: s.eng.Executable(), Err: &ProbeQuarantinedError{ProbeID: r.probeID, Cause: cause}})
}

// applyReq applies a request's intent to the patch manager; unapplyReq is
// its exact inverse, used to roll a failed generation or bisection subset
// back. Requests that were no-ops when applied (the probe was already in
// the requested state) are skipped on roll-back, so redundant toggles in a
// failed batch can never flip state a previous generation committed.
func (s *Supervisor) applyReq(r *request) {
	switch r.kind {
	case reqEnable:
		r.flipped, _ = s.eng.Manager.setActive(r.probeID, true)
	case reqRemove:
		r.flipped, _ = s.eng.Manager.setActive(r.probeID, false)
	case reqChange:
		s.eng.Manager.MarkChanged(r.probeID)
	}
}

func (s *Supervisor) unapplyReq(r *request) {
	switch r.kind {
	case reqEnable:
		if r.flipped {
			s.eng.Manager.SetActive(r.probeID, false)
			r.flipped = false
		}
	case reqRemove:
		if r.flipped {
			s.eng.Manager.SetActive(r.probeID, true)
			r.flipped = false
		}
	case reqChange:
		// A changed mark cannot be meaningfully withdrawn; the target
		// stays dirty and the extra recompile is a cache hit.
	}
}

// commitCleanup runs post-commit bookkeeping for one request: a committed
// removal clears the probe's quarantine, making Remove the recovery path
// for a quarantined probe.
func (s *Supervisor) commitCleanup(r *request) {
	if r.kind != reqRemove {
		return
	}
	s.mu.Lock()
	delete(s.quarantined, r.probeID)
	s.mu.Unlock()
}

// tryRebuild runs one schedule+rebuild under the supervisor's commit fault
// site. The site ("supervisor:commit") fires before the schedule is built,
// so an injected fault fails the generation without touching engine state —
// the substrate for breaker and whole-generation-failure testing.
func (s *Supervisor) tryRebuild() (*link.Executable, *RebuildStats, error) {
	e := s.eng
	if hook := e.opts.FaultHook; hook != nil {
		if err := capture(func() error { return hook("supervisor:commit") }); err != nil {
			return nil, nil, err
		}
	}
	sched, err := e.Schedule()
	if err != nil {
		return nil, nil, err
	}
	return sched.Rebuild()
}

// Breaker bookkeeping. A generation "succeeds" for the breaker when it
// committed whole or its control rebuild passed, and "fails" when the
// control rebuild failed too (or the generation panicked).

func (s *Supervisor) breakerSuccess() {
	s.lastCommitNS.Store(time.Now().UnixNano())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails = 0
	if s.state != BreakerClosed {
		s.setStateLocked(BreakerClosed)
		s.backoff = s.opts.BreakerBackoff
	}
}

func (s *Supervisor) breakerFailure() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails++
	switch {
	case s.state == BreakerHalfOpen:
		// Failed trial: reopen with the backoff doubled.
		s.backoff *= 2
		if s.backoff > s.opts.BreakerMaxBackoff {
			s.backoff = s.opts.BreakerMaxBackoff
		}
		s.reopenAt = time.Now().Add(s.backoff)
		s.setStateLocked(BreakerOpen)
	case s.state == BreakerClosed && s.consecFails >= s.opts.BreakerThreshold:
		s.reopenAt = time.Now().Add(s.backoff)
		s.setStateLocked(BreakerOpen)
	}
}

func (s *Supervisor) setStateLocked(st BreakerState) {
	if s.state == st {
		return
	}
	if st == BreakerOpen {
		s.openSince = time.Now()
	}
	s.state = st
	s.nTransitions.Add(1)
}

// Breaker returns the breaker's current state.
func (s *Supervisor) Breaker() BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// QuarantinedProbes returns the IDs of probes quarantined by poison
// bisection, sorted.
func (s *Supervisor) QuarantinedProbes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.quarantined) == 0 {
		return nil
	}
	out := make([]int, 0, len(s.quarantined))
	for id := range s.quarantined {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// SupervisorStats is a point-in-time snapshot of the supervisor's
// counters, also served by the telemetry gauges.
type SupervisorStats struct {
	Requests            uint64  `json:"requests"`
	Generations         uint64  `json:"generations"`
	GenerationFailures  uint64  `json:"generation_failures"`
	BisectRebuilds      uint64  `json:"bisect_rebuilds"`
	CoalescedRequests   uint64  `json:"coalesced_requests"`
	CoalescingRatio     float64 `json:"coalescing_ratio"`
	RejectedQueueFull   uint64  `json:"rejected_queue_full"`
	RejectedCircuitOpen uint64  `json:"rejected_circuit_open"`
	DoubleResolves      uint64  `json:"double_resolves"`
	QueueDepth          int     `json:"queue_depth"`
	QueueCapacity       int     `json:"queue_capacity"`
	Breaker             string  `json:"breaker"`
	BreakerTransitions  uint64  `json:"breaker_transitions"`
	QuarantinedProbes   []int   `json:"quarantined_probes,omitempty"`
}

// Stats snapshots the supervisor's counters. CoalescingRatio is requests
// absorbed per rebuild generation; > 1 means the queue is batching.
func (s *Supervisor) Stats() SupervisorStats {
	st := SupervisorStats{
		Requests:            s.nRequests.Load(),
		Generations:         s.nGenerations.Load(),
		GenerationFailures:  s.nGenFailures.Load(),
		BisectRebuilds:      s.nBisectRebuilds.Load(),
		CoalescedRequests:   s.nCoalesced.Load(),
		RejectedQueueFull:   s.nRejectedFull.Load(),
		RejectedCircuitOpen: s.nRejectedOpen.Load(),
		DoubleResolves:      s.nDoubleResolves.Load(),
		QueueDepth:          len(s.queue),
		QueueCapacity:       cap(s.queue),
		Breaker:             s.Breaker().String(),
		BreakerTransitions:  s.nTransitions.Load(),
		QuarantinedProbes:   s.QuarantinedProbes(),
	}
	if st.Generations > 0 {
		st.CoalescingRatio = float64(st.CoalescedRequests) / float64(st.Generations)
	}
	return st
}

// SupervisorHealth is the cheap "are you stuck?" snapshot a lifecycle
// watchdog polls: queue pressure, breaker posture with how long it has been
// open, when work last committed, whether a generation is in flight (and for
// how long), and how many generation panics the loop has absorbed. Every
// field is O(1) to read; durations are measured at snapshot time.
type SupervisorHealth struct {
	// QueueDepth is the number of requests waiting in the admission queue.
	QueueDepth int `json:"queue_depth"`
	// OldestQueuedAge is how long the oldest still-queued request has been
	// waiting (0 when the queue is empty). A large value while the loop is
	// supposedly running means the loop is stuck.
	OldestQueuedAge time.Duration `json:"oldest_queued_age_ns"`
	// Breaker is the circuit breaker's state string; BreakerOpenFor is how
	// long it has been continuously open (0 unless open).
	Breaker        string        `json:"breaker"`
	BreakerOpenFor time.Duration `json:"breaker_open_for_ns,omitempty"`
	// LastCommitAge is the time since a generation last committed at least
	// one request; 0 means nothing has committed yet.
	LastCommitAge time.Duration `json:"last_commit_age_ns,omitempty"`
	// GenInFlight reports a rebuild generation currently running, and
	// GenRunningFor how long it has been at it — the rebuild-deadline
	// overrun signal.
	GenInFlight   bool          `json:"gen_in_flight,omitempty"`
	GenRunningFor time.Duration `json:"gen_running_for_ns,omitempty"`
	// LoopPanics counts generations that ended in a recovered panic.
	LoopPanics uint64 `json:"loop_panics,omitempty"`
	// Closing reports that Close or Drain has stopped admission.
	Closing bool `json:"closing,omitempty"`
}

// Health snapshots the supervisor's liveness signals. It takes only the
// cheap internal locks (never the engine lock) and is safe to poll at
// watchdog frequency from any goroutine.
func (s *Supervisor) Health() SupervisorHealth {
	h := SupervisorHealth{
		QueueDepth:      len(s.queue),
		OldestQueuedAge: s.oldestPending(),
		LoopPanics:      s.nLoopPanics.Load(),
	}
	if ns := s.lastCommitNS.Load(); ns > 0 {
		h.LastCommitAge = time.Since(time.Unix(0, ns))
	}
	if ns := s.genStartNS.Load(); ns > 0 {
		h.GenInFlight = true
		h.GenRunningFor = time.Since(time.Unix(0, ns))
	}
	s.mu.Lock()
	h.Breaker = s.state.String()
	if s.state == BreakerOpen && !s.openSince.IsZero() {
		h.BreakerOpenFor = time.Since(s.openSince)
	}
	s.mu.Unlock()
	s.admitMu.RLock()
	h.Closing = s.closing
	s.admitMu.RUnlock()
	return h
}
