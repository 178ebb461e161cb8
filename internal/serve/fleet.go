package serve

import (
	"odin/internal/core"
	"odin/internal/persist"
)

// APIVersion is the wire version prefix of the control-plane routes.
const APIVersion = "v1"

// ShardStatus is one shard's row in the fleet snapshot: what it hosts, how
// its admission queue and breaker are doing, its persist-tier health, and
// the lifecycle manager's view — watchdog state and the failover history.
type ShardStatus struct {
	Name    string `json:"name"`
	Program string `json:"program"`
	// State is the watchdog classification: healthy, degraded, wedged,
	// recovering, or dead.
	State string `json:"state"`
	// ActiveProbes counts currently active probes on the shard.
	ActiveProbes int `json:"active_probes"`
	// WarmHits is the persist-tier hit count observed during the boot
	// build — non-zero means the shard warm-started from its cache.
	WarmHits uint64 `json:"warm_hits"`
	// Supervisor carries queue depth, breaker state, coalescing ratio, and
	// quarantine inventory straight from the shard's supervisor.
	Supervisor core.SupervisorStats `json:"supervisor"`
	// Health is the cheap supervisor health snapshot the watchdog
	// classifies from: queue age, breaker open duration, generation in
	// flight, loop panics.
	Health core.SupervisorHealth `json:"health"`
	// BreakerRetryAfterMS is how long callers should back off while the
	// shard breaker is open (0 when closed).
	BreakerRetryAfterMS float64 `json:"breaker_retry_after_ms,omitempty"`
	// Persist is the shard's cache-tier counters, absent when the shard
	// runs without persistence.
	Persist *persist.Stats `json:"persist,omitempty"`
	// Restarts counts restarts in place over the shard's lifetime;
	// Failovers is the bounded recent-event history.
	Restarts  uint64          `json:"restarts,omitempty"`
	Failovers []FailoverEvent `json:"failovers,omitempty"`
	// JournalRecords and JournalDropped describe the tenant-probe journal:
	// how many committed ops it holds, and how many appends were lost to
	// persistent write failure.
	JournalRecords int    `json:"journal_records,omitempty"`
	JournalDropped uint64 `json:"journal_dropped,omitempty"`
}

// FleetSnapshot is the GET /v1/fleet document: every shard's status plus
// the fleet admission picture. It is the serve-layer analogue of the PR 3
// /debug/odin engine snapshot, aggregated across shards.
type FleetSnapshot struct {
	Shards []ShardStatus `json:"shards"`
	// Tenants is the per-tenant admission ledger (admitted/shed/failed,
	// failure-breaker state), so one tenant's view of the fleet includes
	// whether it — or a neighbour — is being contained.
	Tenants []TenantStats `json:"tenants,omitempty"`
	// InFlight is the number of requests currently inside the fleet
	// in-flight cap.
	InFlight int `json:"in_flight"`
}

// ShardInfo is one row of GET /v1/shards: just enough to route.
type ShardInfo struct {
	Name    string `json:"name"`
	Program string `json:"program"`
}

// ProbeResult is the response body of probe and sync operations: the probe
// ID (add only), the generation that applied the change, and how the
// supervisor handled the request. Probe IDs are serve-level — stable across
// engine restarts, unlike the engine's own probe IDs.
type ProbeResult struct {
	ID  int64  `json:"id"`
	Gen uint64 `json:"gen"`
	// Coalesced is how many requests shared the rebuild generation that
	// resolved this one; Salvaged reports it was rescued by poison-probe
	// bisection.
	Coalesced int  `json:"coalesced,omitempty"`
	Salvaged  bool `json:"salvaged,omitempty"`
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
	// Code is a stable machine-readable discriminator: bad_request,
	// not_found, quarantined, shed, breaker_open, closed, dead, internal.
	Code string `json:"code"`
	// RetryAfterS mirrors the Retry-After header for JSON-only clients.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}
