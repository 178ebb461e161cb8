package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"odin/internal/core"
)

// TenantHeader names the request header carrying the tenant identity.
// Absent means TenantAnonymous — admission still applies, under one shared
// identity.
const (
	TenantHeader    = "X-Odin-Tenant"
	TenantAnonymous = "anonymous"
)

// routes assembles the versioned control-plane mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	mux.HandleFunc("GET /v1/shards", s.handleShards)
	mux.HandleFunc("GET /v1/shards/{shard}/functions", s.handleFunctions)
	mux.HandleFunc("POST /v1/shards/{shard}/probes", s.handleProbeAdd)
	mux.HandleFunc("POST /v1/shards/{shard}/probes/{id}/{action}", s.handleProbeAction)
	mux.HandleFunc("POST /v1/shards/{shard}/sync", s.handleSync)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return TenantAnonymous
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError emits the JSON error envelope; retryAfter > 0 also sets the
// Retry-After header (whole seconds, floored at 1).
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	e := apiError{Error: msg, Code: code}
	if retryAfter > 0 {
		retryAfter = ceilSecond(retryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		e.RetryAfterS = retryAfter.Seconds()
	}
	writeJSON(w, status, e)
}

// writeShed maps an admission rejection to 429 + Retry-After.
func writeShed(w http.ResponseWriter, shed *Shed) {
	writeError(w, http.StatusTooManyRequests, "shed",
		"admission shed: "+shed.Reason, shed.RetryAfter)
}

// writeAcquireError maps a slot-acquisition failure: a dead shard fails
// fast with a long Retry-After (recovery needs an operator), a context
// expiry means the request sat out the whole failover window.
func writeAcquireError(w http.ResponseWriter, sh *shard, err error) {
	if errors.Is(err, ErrShardDead) {
		writeError(w, http.StatusServiceUnavailable, "dead",
			fmt.Sprintf("shard %s is dead: %v", sh.name, err), deadRetryAfter)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "closed",
		"request expired waiting for shard: "+err.Error(), 0)
}

// errNoProbe reports a probe ID missing from the shard's ledger.
var errNoProbe = errors.New("no probe")

// writeSubmitError maps supervisor admission errors — the ones returned
// before a ticket exists.
func (s *Server) writeSubmitError(w http.ResponseWriter, sh *shard, slot *engineSlot, err error) {
	var qe *core.ProbeQuarantinedError
	switch {
	case errors.Is(err, errNoProbe):
		writeError(w, http.StatusNotFound, "not_found", err.Error(), 0)
	case errors.Is(err, core.ErrCircuitOpen):
		// A window that has just elapsed still sends the 1s grain.
		writeError(w, http.StatusServiceUnavailable, "breaker_open",
			fmt.Sprintf("shard %s circuit breaker open", sh.name), max(slot.sup.BreakerRetryAfter(), time.Second))
	case errors.Is(err, core.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "shed",
			fmt.Sprintf("shard %s admission queue full", sh.name), time.Second)
	case errors.Is(err, core.ErrSupervisorClosed):
		writeError(w, http.StatusServiceUnavailable, "closed",
			fmt.Sprintf("shard %s is shutting down", sh.name), 0)
	case errors.As(err, &qe):
		writeError(w, http.StatusUnprocessableEntity, "quarantined",
			err.Error(), 0)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "closed",
			"request cancelled during admission", 0)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
	}
}

// writeTicketError maps a committed generation's failure — the ticket
// resolved, but against this request. An engine that failed its control
// rebuild answers 503 + Retry-After: the request was not at fault, and a
// retry may commit.
func writeTicketError(w http.ResponseWriter, err error) {
	var qe *core.ProbeQuarantinedError
	switch {
	case errors.As(err, &qe):
		writeError(w, http.StatusUnprocessableEntity, "quarantined", err.Error(), 0)
	case errors.Is(err, core.ErrEngineUnhealthy):
		writeError(w, http.StatusServiceUnavailable, "engine_failed", err.Error(), time.Second)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
	}
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Fleet())
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Shards())
}

// handleFunctions lists a shard's instrumentable functions — the valid
// probe targets.
func (s *Server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	sh := s.shardOf(w, r)
	if sh == nil {
		return
	}
	writeJSON(w, http.StatusOK, sh.funcs)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.agg.WritePrometheus(w)
}

// shardOf resolves the {shard} path segment, writing 404 on a miss.
func (s *Server) shardOf(w http.ResponseWriter, r *http.Request) *shard {
	name := r.PathValue("shard")
	sh, ok := s.byName[name]
	if !ok {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("unknown shard %q", name), 0)
		return nil
	}
	return sh
}

// handleProbeAdd is POST /v1/shards/{shard}/probes: admit, register the
// probe, wait out its activation generation, and attribute the outcome to
// the tenant's failure breaker. Only a committed add gets a serve-level ID
// and a ledger record, and its op is journaled: a failed add leaves nothing
// for a restart to replay.
func (s *Server) handleProbeAdd(w http.ResponseWriter, r *http.Request) {
	sh := s.shardOf(w, r)
	if sh == nil {
		return
	}
	tenant := tenantOf(r)
	release, shed := s.adm.admit(tenant)
	if shed != nil {
		writeShed(w, shed)
		return
	}
	defer release()

	var spec ProbeSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid probe spec: "+err.Error(), 0)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
	defer cancel()
	op := journalOp{Op: jopAdd, Tenant: tenant, Spec: &spec}
	res, ok := s.request(ctx, w, sh, tenant, &op, func(slot *engineSlot) (int, *core.Ticket, error) {
		return slot.sup.AddProbeCtx(ctx, buildProbe(spec))
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ProbeResult{
		ID: op.ID, Gen: res.Gen, Coalesced: res.Coalesced, Salvaged: res.Salvaged,
	})
}

// handleProbeAction is POST /v1/shards/{shard}/probes/{id}/{action} with
// action one of enable, remove, change. Tenants can only act on probes
// they own; foreign or unknown IDs read as not found. IDs are serve-level:
// stable across engine restarts.
func (s *Server) handleProbeAction(w http.ResponseWriter, r *http.Request) {
	sh := s.shardOf(w, r)
	if sh == nil {
		return
	}
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "probe id must be an integer", 0)
		return
	}
	action := r.PathValue("action")
	switch action {
	case jopEnable, jopRemove, jopChange:
	default:
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown action %q (want enable, remove, or change)", action), 0)
		return
	}
	tenant := tenantOf(r)
	rec, ok := sh.lookupProbe(id)
	if !ok || rec.Tenant != tenant {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no probe %d for tenant %q on shard %s", id, tenant, sh.name), 0)
		return
	}
	release, shed := s.adm.admit(tenant)
	if shed != nil {
		writeShed(w, shed)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
	defer cancel()
	op := journalOp{Op: action, ID: id, Tenant: tenant}
	res, ok := s.request(ctx, w, sh, tenant, &op, func(slot *engineSlot) (int, *core.Ticket, error) {
		// Re-resolve the engine ID each attempt: a failover rewrites it.
		rec, ok := sh.lookupProbe(id)
		if !ok {
			return 0, nil, fmt.Errorf("%w %d on shard %s", errNoProbe, id, sh.name)
		}
		tk, err := submitOp(ctx, slot.sup, action, rec.EngID)
		return rec.EngID, tk, err
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ProbeResult{
		ID: id, Gen: res.Gen, Coalesced: res.Coalesced, Salvaged: res.Salvaged,
	})
}

// handleSync is POST /v1/shards/{shard}/sync: a generation barrier over
// everything enqueued before it. Sync outcomes are not attributed to the
// tenant breaker — a failed generation at a barrier is the shard's story,
// not the caller's. Syncs are not journaled (they carry no state).
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	sh := s.shardOf(w, r)
	if sh == nil {
		return
	}
	release, shed := s.adm.admit(tenantOf(r))
	if shed != nil {
		writeShed(w, shed)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), requestTimeout)
	defer cancel()
	res, ok := s.request(ctx, w, sh, "", nil, func(slot *engineSlot) (int, *core.Ticket, error) {
		tk, err := slot.sup.SyncCtx(ctx)
		return 0, tk, err
	})
	if ok {
		writeJSON(w, http.StatusOK, ProbeResult{Gen: res.Gen, Coalesced: res.Coalesced})
	}
}

// request drives one supervisor request to its resolution: acquire the
// serving slot, submit, wait out the generation, and commit op (nil for a
// sync) with the engine probe ID submit returns. A request that lands in a
// failover window parks on the shard gate and is re-admitted against the
// new slot — delayed, not dropped. So is one whose submit error or ticket
// result comes from a slot that no longer serves, or whose commit the shard
// refuses: what the old engine did is not the state the serving slot has.
// A non-empty tenant has the outcome attributed to its failure breaker,
// unless the engine rather than the request failed. Every failure is
// written to w; ok reports that the request committed.
func (s *Server) request(ctx context.Context, w http.ResponseWriter, sh *shard, tenant string, op *journalOp,
	submit func(*engineSlot) (int, *core.Ticket, error)) (core.TicketResult, bool) {
	for {
		slot, err := sh.acquire(ctx)
		if err != nil {
			writeAcquireError(w, sh, err)
			return core.TicketResult{}, false
		}
		engID, tk, err := submit(slot)
		if err != nil {
			if sh.stale(slot) {
				continue
			}
			s.writeSubmitError(w, sh, slot, err)
			return core.TicketResult{}, false
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "closed",
				"timed out waiting for generation: "+err.Error(), 0)
			return res, false
		}
		if res.Err == nil && !sh.commit(slot, op, engID) || res.Err != nil && sh.stale(slot) {
			continue
		}
		if tenant != "" && !errors.Is(res.Err, core.ErrEngineUnhealthy) {
			s.adm.report(tenant, res.Err == nil)
		}
		if res.Err != nil {
			writeTicketError(w, res.Err)
			return res, false
		}
		return res, true
	}
}

// submitOp enqueues the supervisor request behind a probe action (enable,
// remove or change) on engine probe engID.
func submitOp(ctx context.Context, sup *core.Supervisor, op string, engID int) (*core.Ticket, error) {
	switch op {
	case jopEnable:
		return sup.EnableProbeCtx(ctx, engID)
	case jopRemove:
		return sup.RemoveProbeCtx(ctx, engID)
	case jopChange:
		// A change re-instruments to the same IR for every probe kind serve
		// builds, so it is a generation barrier, like a sync.
		return sup.SyncCtx(ctx)
	}
	return nil, fmt.Errorf("serve: %q is not a probe action", op)
}
