package serve

import (
	"sort"
	"sync"
	"time"

	"odin/internal/backoff"
	"odin/internal/telemetry"
)

// AdmissionOptions tunes the fleet admission ladder. Every request passes
// three gates before reaching a shard's queue: the tenant's token bucket
// (rate fairness), the tenant's failure breaker (hostile-tenant
// containment), and the global in-flight cap (fleet overload). Each gate
// sheds with 429 + Retry-After rather than queueing, so pressure never
// crosses tenant boundaries.
type AdmissionOptions struct {
	// TenantRPS is each tenant's sustained request rate (tokens per
	// second). 0 means DefTenantRPS; negative disables the bucket.
	TenantRPS float64
	// TenantBurst is the bucket capacity (0 = DefTenantBurst).
	TenantBurst float64
	// MaxInFlight caps concurrently admitted requests fleet-wide (0 =
	// DefMaxInFlight; negative disables the cap).
	MaxInFlight int
	// FailThreshold opens a tenant's failure breaker after this many
	// consecutive failed probe operations (0 = DefFailThreshold; negative
	// disables the breaker).
	FailThreshold int
	// FailBackoff is the breaker's initial open window, doubled per
	// consecutive trip up to backoff.Max.
	FailBackoff time.Duration
}

// Admission ladder defaults.
const (
	DefTenantRPS     = 200.0
	DefTenantBurst   = 100.0
	DefMaxInFlight   = 256
	DefFailThreshold = 3
)

// DefFailBackoff is the failure breaker's default initial window.
var DefFailBackoff = 250 * time.Millisecond

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.TenantRPS == 0 {
		o.TenantRPS = DefTenantRPS
	}
	if o.TenantBurst == 0 {
		o.TenantBurst = DefTenantBurst
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = DefMaxInFlight
	}
	if o.FailThreshold == 0 {
		o.FailThreshold = DefFailThreshold
	}
	if o.FailBackoff <= 0 {
		o.FailBackoff = DefFailBackoff
	}
	return o
}

// Shed reasons, also the `reason` label on odin_serve_shed_total.
const (
	ShedRateLimit     = "rate_limit"
	ShedTenantBreaker = "tenant_breaker"
	ShedOverload      = "overload"
)

// Shed is an admission rejection: why, and when a retry is worthwhile.
type Shed struct {
	Reason     string
	RetryAfter time.Duration
}

// tenantState is one tenant's admission bookkeeping: a token bucket and a
// consecutive-failure breaker, both lazily created on first contact.
type tenantState struct {
	// Token bucket (monotonic refill at rps up to burst).
	tokens   float64
	lastFill time.Time

	// Failure breaker.
	fails     int
	openUntil time.Time
	backoff   backoff.Backoff

	// Counters for the fleet snapshot.
	admitted uint64
	shed     uint64
	failed   uint64
	trips    uint64
}

// admission is the fleet gatekeeper. One mutex covers all tenants: every
// operation is a handful of float ops, so contention is negligible next to
// the rebuilds behind it.
type admission struct {
	opts AdmissionOptions

	mu       sync.Mutex
	tenants  map[string]*tenantState
	inFlight int

	// Fleet-registry instruments (nil-safe).
	mAdmitted *telemetry.Counter
	mInFlight *telemetry.Gauge
	shedVecMu sync.Mutex
	shedVec   map[string]*telemetry.Counter
	reg       *telemetry.Registry
}

func newAdmission(opts AdmissionOptions, reg *telemetry.Registry) *admission {
	reg.Describe("odin_serve_admitted_total", "Requests admitted past the fleet admission ladder.")
	reg.Describe("odin_serve_shed_total", "Requests shed by the admission ladder, by tenant and reason.")
	reg.Describe("odin_serve_inflight", "Requests currently admitted and in flight.")
	return &admission{
		opts:      opts.withDefaults(),
		tenants:   map[string]*tenantState{},
		mAdmitted: reg.Counter("odin_serve_admitted_total"),
		mInFlight: reg.Gauge("odin_serve_inflight"),
		shedVec:   map[string]*telemetry.Counter{},
		reg:       reg,
	}
}

// shedCounter returns the per-(tenant, reason) shed counter, cached so the
// hot path registers each label set once.
func (a *admission) shedCounter(tenant, reason string) *telemetry.Counter {
	key := tenant + "\x00" + reason
	a.shedVecMu.Lock()
	defer a.shedVecMu.Unlock()
	c, ok := a.shedVec[key]
	if !ok {
		c = a.reg.Counter("odin_serve_shed_total", "tenant", tenant, "reason", reason)
		a.shedVec[key] = c
	}
	return c
}

func (a *admission) tenant(name string) *tenantState {
	t, ok := a.tenants[name]
	if !ok {
		t = &tenantState{tokens: a.opts.TenantBurst, lastFill: time.Now(), backoff: backoff.New(a.opts.FailBackoff)}
		a.tenants[name] = t
	}
	return t
}

// admit runs the ladder for one request. On success it returns a release
// function that MUST be called when the request finishes; on rejection it
// returns the shed verdict.
func (a *admission) admit(tenant string) (release func(), shed *Shed) {
	a.mu.Lock()
	t := a.tenant(tenant)
	now := time.Now()

	// Gate 1: token bucket.
	if a.opts.TenantRPS > 0 {
		t.tokens += now.Sub(t.lastFill).Seconds() * a.opts.TenantRPS
		if t.tokens > a.opts.TenantBurst {
			t.tokens = a.opts.TenantBurst
		}
		t.lastFill = now
		if t.tokens < 1 {
			wait := time.Duration((1 - t.tokens) / a.opts.TenantRPS * float64(time.Second))
			t.shed++
			a.mu.Unlock()
			a.shedCounter(tenant, ShedRateLimit).Inc()
			return nil, &Shed{Reason: ShedRateLimit, RetryAfter: ceilSecond(wait)}
		}
		t.tokens--
	}

	// Gate 2: tenant failure breaker. A tripped tenant is shed outright —
	// its poison traffic never reaches a shard queue, so it cannot trip the
	// shard breaker that healthy tenants depend on.
	if a.opts.FailThreshold > 0 && now.Before(t.openUntil) {
		wait := t.openUntil.Sub(now)
		t.shed++
		a.mu.Unlock()
		a.shedCounter(tenant, ShedTenantBreaker).Inc()
		return nil, &Shed{Reason: ShedTenantBreaker, RetryAfter: ceilSecond(wait)}
	}

	// Gate 3: global in-flight cap.
	if a.opts.MaxInFlight > 0 && a.inFlight >= a.opts.MaxInFlight {
		t.shed++
		a.mu.Unlock()
		a.shedCounter(tenant, ShedOverload).Inc()
		return nil, &Shed{Reason: ShedOverload, RetryAfter: time.Second}
	}
	a.inFlight++
	t.admitted++
	a.mu.Unlock()

	a.mAdmitted.Inc()
	a.mInFlight.Set(int64(a.InFlight()))
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.inFlight--
			n := a.inFlight
			a.mu.Unlock()
			a.mInFlight.Set(int64(n))
		})
	}, nil
}

// report feeds a probe operation's outcome into the tenant's failure
// breaker: failures attributable to the tenant (instrument errors,
// quarantines) count toward the trip threshold; any success resets it.
func (a *admission) report(tenant string, ok bool) {
	if a.opts.FailThreshold <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tenant(tenant)
	if ok {
		t.fails = 0
		t.backoff.Reset()
		return
	}
	t.failed++
	t.fails++
	if t.fails >= a.opts.FailThreshold {
		t.openUntil = time.Now().Add(t.backoff.Next())
		t.trips++
		t.fails = 0
	}
}

// InFlight reports the currently admitted request count.
func (a *admission) InFlight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight
}

// TenantStats is one tenant's row in the fleet snapshot.
type TenantStats struct {
	Tenant   string `json:"tenant"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Failed   uint64 `json:"failed"`
	// BreakerTrips counts failure-breaker openings; BreakerOpenMS is the
	// remaining open window (0 when closed).
	BreakerTrips  uint64  `json:"breaker_trips"`
	BreakerOpenMS float64 `json:"breaker_open_ms"`
}

// snapshot returns per-tenant admission stats sorted by tenant name.
func (a *admission) snapshot() []TenantStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	out := make([]TenantStats, 0, len(a.tenants))
	for name, t := range a.tenants {
		ts := TenantStats{
			Tenant:       name,
			Admitted:     t.admitted,
			Shed:         t.shed,
			Failed:       t.failed,
			BreakerTrips: t.trips,
		}
		if t.openUntil.After(now) {
			ts.BreakerOpenMS = float64(t.openUntil.Sub(now)) / float64(time.Millisecond)
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// ceilSecond rounds a wait up to whole seconds with a 1s floor — the HTTP
// Retry-After grain.
func ceilSecond(d time.Duration) time.Duration {
	if d <= time.Second {
		return time.Second
	}
	if rem := d % time.Second; rem != 0 {
		d += time.Second - rem
	}
	return d
}
