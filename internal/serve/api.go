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

// writeSubmitError maps supervisor admission errors — the ones returned
// before a ticket exists.
func (s *Server) writeSubmitError(w http.ResponseWriter, sh *shard, slot *engineSlot, err error) {
	var qe *core.ProbeQuarantinedError
	switch {
	case errors.Is(err, core.ErrCircuitOpen):
		writeError(w, http.StatusServiceUnavailable, "breaker_open",
			fmt.Sprintf("shard %s circuit breaker open", sh.name), slot.sup.BreakerRetryAfter())
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

// retryableFailover reports whether an operation that failed with err
// should be parked and re-admitted: the slot it ran on was swapped out (or
// is being swapped out) by a failover, so the failure is the old engine's
// teardown, not the request's fault. The caller loops back through acquire,
// which parks on the swap gate.
func retryableFailover(sh *shard, slot *engineSlot, err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, core.ErrSupervisorClosed) && sh.stale(slot)
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
// the tenant's failure breaker. The committed op is journaled. A request
// that lands in a failover window parks on the shard gate and is
// re-admitted against the new slot — delayed, not dropped.
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

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	id := sh.nextProbeID()
	for {
		slot, err := sh.acquire(ctx)
		if err != nil {
			writeAcquireError(w, sh, err)
			return
		}
		engID, tk, err := slot.sup.AddProbeCtx(ctx, buildProbe(spec, sh.site.Add(1)))
		if err != nil {
			if retryableFailover(sh, slot, err) {
				continue
			}
			s.writeSubmitError(w, sh, slot, err)
			return
		}
		sh.record(slot, id, engID, tenant, spec)
		res, err := tk.Wait(ctx)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "closed",
				"timed out waiting for generation: "+err.Error(), 0)
			return
		}
		if retryableFailover(sh, slot, res.Err) {
			continue
		}
		// An engine failure is not the tenant's fault: it stays out of the
		// tenant's breaker.
		if !errors.Is(res.Err, core.ErrEngineUnhealthy) {
			s.adm.report(tenant, res.Err == nil)
		}
		if res.Err != nil {
			writeTicketError(w, res.Err)
			return
		}
		sh.committed(slot, journalOp{Op: jopAdd, ID: id, Tenant: tenant, Spec: &spec})
		writeJSON(w, http.StatusOK, ProbeResult{
			ID: id, Gen: res.Gen, Coalesced: res.Coalesced, Salvaged: res.Salvaged,
		})
		return
	}
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
	var jop string
	switch action {
	case "enable":
		jop = jopEnable
	case "remove":
		jop = jopRemove
	case "change":
		jop = jopChange
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

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	for {
		slot, err := sh.acquire(ctx)
		if err != nil {
			writeAcquireError(w, sh, err)
			return
		}
		// Re-resolve the engine ID each attempt: a failover rewrites it.
		rec, ok := sh.lookupProbe(id)
		if !ok {
			writeError(w, http.StatusNotFound, "not_found",
				fmt.Sprintf("no probe %d on shard %s", id, sh.name), 0)
			return
		}
		var tk *core.Ticket
		switch action {
		case "enable":
			tk, err = slot.sup.EnableProbeCtx(ctx, rec.EngID)
		case "remove":
			tk, err = slot.sup.RemoveProbeCtx(ctx, rec.EngID)
		case "change":
			tk, err = slot.sup.MarkChangedCtx(ctx, rec.EngID)
		}
		if err != nil {
			if retryableFailover(sh, slot, err) {
				continue
			}
			s.writeSubmitError(w, sh, slot, err)
			return
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "closed",
				"timed out waiting for generation: "+err.Error(), 0)
			return
		}
		if retryableFailover(sh, slot, res.Err) {
			continue
		}
		// An engine failure is not the tenant's fault: it stays out of the
		// tenant's breaker.
		if !errors.Is(res.Err, core.ErrEngineUnhealthy) {
			s.adm.report(tenant, res.Err == nil)
		}
		if res.Err != nil {
			writeTicketError(w, res.Err)
			return
		}
		sh.committed(slot, journalOp{Op: jop, ID: id, Tenant: tenant})
		writeJSON(w, http.StatusOK, ProbeResult{
			ID: id, Gen: res.Gen, Coalesced: res.Coalesced, Salvaged: res.Salvaged,
		})
		return
	}
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

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	for {
		slot, err := sh.acquire(ctx)
		if err != nil {
			writeAcquireError(w, sh, err)
			return
		}
		tk, err := slot.sup.SyncCtx(ctx)
		if err != nil {
			if retryableFailover(sh, slot, err) {
				continue
			}
			s.writeSubmitError(w, sh, slot, err)
			return
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, "closed",
				"timed out waiting for generation: "+err.Error(), 0)
			return
		}
		if retryableFailover(sh, slot, res.Err) {
			continue
		}
		if res.Err != nil {
			writeTicketError(w, res.Err)
			return
		}
		writeJSON(w, http.StatusOK, ProbeResult{Gen: res.Gen, Coalesced: res.Coalesced})
		return
	}
}
