package core

import (
	"strconv"
	"sync"
	"time"

	"odin/internal/persist"
	"odin/internal/telemetry"
)

// Engine metric family names. They are registered (at zero) as soon as an
// engine is created with a telemetry registry, so every family is present
// on /metrics from the first scrape.
const (
	MetricRebuilds        = "odin_rebuilds_total"
	MetricRebuildFailures = "odin_rebuild_failures_total"
	MetricRebuildTimeouts = "odin_rebuild_timeouts_total"
	MetricFragCompiles    = "odin_fragment_compiles_total"
	MetricCacheHits       = "odin_fragment_cache_hits_total"
	MetricCacheMisses     = "odin_fragment_cache_misses_total"
	MetricFuncCompiles    = "odin_func_compiles_total"
	MetricDegraded        = "odin_fragment_degraded_total"
	MetricQuarantined     = "odin_passes_quarantined_total"
	MetricDeferred        = "odin_fragment_deferred_total"
	MetricLink            = "odin_link_total"
	MetricRelinkFaults    = "odin_link_relink_faults_total"
	MetricRebuildSeconds  = "odin_rebuild_seconds"
	MetricFragSeconds     = "odin_fragment_compile_seconds"
	MetricLinkSeconds     = "odin_link_seconds"
	MetricFragments       = "odin_fragments"
	MetricActiveProbes    = "odin_active_probes"
	MetricWorkers         = "odin_workers"
	MetricFaultHookCalls  = "odin_fault_hook_calls_total"
	MetricFaultsRaised    = "odin_fault_injections_total"
	MetricProbeHits       = "odin_probe_hits_total"
	// The verifier families. Checks counts strict-verification runs (temp
	// IR, post-opt fragment modules, and per-pass checks at the VerifyAll
	// tier); cache hits counts functions skipped because their content hash
	// was already verified clean; violations counts invariant breaks by the
	// offending pass; seconds is total verification time.
	MetricVerifyChecks     = "odin_verify_checks_total"
	MetricVerifyCacheHits  = "odin_verify_cache_hits_total"
	MetricVerifyViolations = "odin_verify_violations_total"
	MetricVerifySeconds    = "odin_verify_seconds"
)

// passAgg accumulates one optimizer pass's runs within a single compile
// attempt: fixpoint iteration re-runs passes, and the trace records one
// span per pass name with the summed duration plus run/changed counts.
type passAgg struct {
	name    string
	start   time.Time
	dur     time.Duration
	runs    int
	changed int
}

// passScratch is the reusable per-attempt buffer behind pass-span
// aggregation. Both slices are transient — StaticChildren copies the
// observations into the trace's own backing array — so pooling them keeps
// per-pass tracing from generating garbage on every compile.
type passScratch struct {
	aggs []passAgg
	obs  []telemetry.SpanObs
}

var passScratchPool = sync.Pool{New: func() any {
	return &passScratch{aggs: make([]passAgg, 0, 16), obs: make([]telemetry.SpanObs, 0, 16)}
}}

// passAttrTab caches the attribute slices for common (runs, changed)
// combinations so per-pass spans allocate nothing for them on the compile
// hot path.
var passAttrTab [9][9][]telemetry.Attr

func init() {
	for r := 1; r < len(passAttrTab); r++ {
		for c := 0; c <= r; c++ {
			passAttrTab[r][c] = buildPassAttrs(r, c)
		}
	}
}

func buildPassAttrs(runs, changed int) []telemetry.Attr {
	if runs <= 1 && changed == 0 {
		return nil
	}
	attrs := make([]telemetry.Attr, 0, 2)
	if runs > 1 {
		attrs = append(attrs, telemetry.Attr{K: "runs", V: strconv.Itoa(runs)})
	}
	if changed > 0 {
		attrs = append(attrs, telemetry.Attr{K: "changed", V: strconv.Itoa(changed)})
	}
	return attrs
}

// passAttrs returns the run/changed attributes for an aggregated pass span,
// served from passAttrTab when possible.
func passAttrs(runs, changed int) []telemetry.Attr {
	if runs < len(passAttrTab) && changed < len(passAttrTab) {
		return passAttrTab[runs][changed]
	}
	return buildPassAttrs(runs, changed)
}

// engineMetrics holds the engine's pre-registered metric handles. With a
// nil registry every handle is nil and every update is a single nil check —
// the zero-overhead contract of Options.Telemetry.
type engineMetrics struct {
	rebuilds        *telemetry.Counter
	rebuildFailures *telemetry.Counter
	rebuildTimeouts *telemetry.Counter
	fragCompiles    *telemetry.Counter
	cacheHits       *telemetry.Counter
	cacheMisses     *telemetry.Counter
	funcCompiles    *telemetry.Counter
	degraded        *telemetry.Counter
	quarantined     *telemetry.Counter
	deferred        *telemetry.Counter
	rebuildDur      *telemetry.Histogram
	fragDur         *telemetry.Histogram
	linkDur         *telemetry.Histogram
	fragments       *telemetry.Gauge
	activeProbes    *telemetry.Gauge
	workers         *telemetry.Gauge
	verifyChecks    *telemetry.Counter
	verifyCacheHits *telemetry.Counter
	verifyDur       *telemetry.Histogram
	// reg is retained for the lazily-created per-pass violation counters;
	// nil when telemetry is off (Counter on a nil registry returns a nil,
	// nil-safe handle).
	reg *telemetry.Registry
}

// verifyViolation returns the violation counter labeled with the offending
// pass, creating it on first use. Violations are error-path events, so the
// registry lookup cost does not matter.
func (m *engineMetrics) verifyViolation(pass string) *telemetry.Counter {
	return m.reg.Counter(MetricVerifyViolations, "pass", pass)
}

// newEngineMetrics registers the engine metric families on reg (a no-op
// returning nil handles when reg is nil).
func newEngineMetrics(reg *telemetry.Registry) engineMetrics {
	reg.Describe(MetricRebuilds, "Rebuilds completed successfully (possibly degraded).")
	reg.Describe(MetricRebuildFailures, "Rebuilds that failed; cache and executable untouched.")
	reg.Describe(MetricRebuildTimeouts, "Rebuilds abandoned at the RebuildTimeout deadline.")
	reg.Describe(MetricFragCompiles, "Fragment compilations committed, including cache hits.")
	reg.Describe(MetricCacheHits, "Fragment compiles satisfied by the content-hash cache.")
	reg.Describe(MetricCacheMisses, "Fragment compiles that ran the middle and back end.")
	reg.Describe(MetricFuncCompiles, "Member functions that ran the middle and back end.")
	reg.Describe(MetricDegraded, "Fragments compiled below the configured level by the degradation ladder.")
	reg.Describe(MetricQuarantined, "Optimizer passes newly quarantined after causing a fragment failure.")
	reg.Describe(MetricDeferred, "Fragments served from their last-good object with the probe change deferred.")
	reg.Describe(MetricLink, "Links taken, by mode (full vs incremental relink).")
	reg.Describe(MetricRelinkFaults, "Incremental relinks abandoned mid-flight and degraded to a full link.")
	reg.Describe(MetricRebuildSeconds, "End-to-end rebuild duration.")
	reg.Describe(MetricFragSeconds, "Per-fragment materialize+opt+codegen duration.")
	reg.Describe(MetricLinkSeconds, "Link duration per rebuild.")
	reg.Describe(MetricFragments, "Fragments in the partition plan.")
	reg.Describe(MetricActiveProbes, "Probes currently active in the patch manager.")
	reg.Describe(MetricWorkers, "Resolved compile-pool size.")
	reg.Describe(MetricVerifyChecks, "Strict IR verification checks run (boundary and per-pass tiers).")
	reg.Describe(MetricVerifyCacheHits, "Functions skipped by verification because their content hash was already verified clean.")
	reg.Describe(MetricVerifyViolations, "IR invariant violations caught, by offending optimizer pass.")
	reg.Describe(MetricVerifySeconds, "Time spent in strict IR verification.")
	return engineMetrics{
		rebuilds:        reg.Counter(MetricRebuilds),
		rebuildFailures: reg.Counter(MetricRebuildFailures),
		rebuildTimeouts: reg.Counter(MetricRebuildTimeouts),
		fragCompiles:    reg.Counter(MetricFragCompiles),
		cacheHits:       reg.Counter(MetricCacheHits),
		cacheMisses:     reg.Counter(MetricCacheMisses),
		funcCompiles:    reg.Counter(MetricFuncCompiles),
		degraded:        reg.Counter(MetricDegraded),
		quarantined:     reg.Counter(MetricQuarantined),
		deferred:        reg.Counter(MetricDeferred),
		rebuildDur:      reg.Histogram(MetricRebuildSeconds, nil),
		fragDur:         reg.Histogram(MetricFragSeconds, nil),
		linkDur:         reg.Histogram(MetricLinkSeconds, nil),
		fragments:       reg.Gauge(MetricFragments),
		activeProbes:    reg.Gauge(MetricActiveProbes),
		workers:         reg.Gauge(MetricWorkers),
		verifyChecks:    reg.Counter(MetricVerifyChecks),
		verifyCacheHits: reg.Counter(MetricVerifyCacheHits),
		verifyDur:       reg.Histogram(MetricVerifySeconds, nil),
		reg:             reg,
	}
}

// wrapFaultHook counts fault-hook invocations and raised faults (errors and
// panics both) on the registry, preserving the hook's behavior exactly.
func wrapFaultHook(reg *telemetry.Registry, hook func(string) error) func(string) error {
	if reg == nil || hook == nil {
		return hook
	}
	reg.Describe(MetricFaultHookCalls, "FaultHook invocations across pipeline sites.")
	reg.Describe(MetricFaultsRaised, "FaultHook calls that raised an error or panic.")
	calls := reg.Counter(MetricFaultHookCalls)
	raised := reg.Counter(MetricFaultsRaised)
	return func(site string) error {
		calls.Inc()
		defer func() {
			if r := recover(); r != nil {
				raised.Inc()
				panic(r)
			}
		}()
		err := hook(site)
		if err != nil {
			raised.Inc()
		}
		return err
	}
}

// Telemetry returns the engine's registry, or nil when telemetry is off.
func (e *Engine) Telemetry() *telemetry.Registry { return e.opts.Telemetry }

// EngineSnapshot is the JSON-marshalable view of live engine state the
// introspection endpoint serves at /debug/odin.
type EngineSnapshot struct {
	Variant       string           `json:"variant"`
	OptLevel      int              `json:"opt_level"`
	Workers       int              `json:"workers"`
	Fragments     int              `json:"fragments"`
	ActiveProbes  int              `json:"active_probes"`
	CachedObjects int              `json:"cached_objects"`
	NeverBuilt    int              `json:"never_built"`
	Deferred      []int            `json:"deferred,omitempty"`
	Quarantined   map[int][]string `json:"quarantined,omitempty"`
	Rebuilds      int              `json:"rebuilds"`
	LastRebuild   *RebuildStats    `json:"last_rebuild,omitempty"`
	// Persist is the persistent artifact store's counters, present only
	// when Options.CacheDir attached one. SnapshotRestored reports that
	// engine state was restored from Options.SnapshotPath at construction.
	Persist          *persist.Stats `json:"persist,omitempty"`
	SnapshotRestored bool           `json:"snapshot_restored,omitempty"`
}

// Snapshot captures the engine's current state for introspection. It is
// safe to call concurrently with rebuilds; probe-manager mutations (Add,
// Remove) happen on the engine's own thread between rebuilds, as usual.
func (e *Engine) Snapshot() EngineSnapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := EngineSnapshot{
		Variant:      e.opts.Variant.String(),
		OptLevel:     optLevel,
		Workers:      e.opts.workers(),
		Fragments:    len(e.frags),
		ActiveProbes: e.Manager.NumActive(),
		Rebuilds:     e.rebuilds,
	}
	for id := range e.frags {
		st := &e.frags[id]
		if st.obj != nil {
			s.CachedObjects++
		}
		if st.deferred {
			s.Deferred = append(s.Deferred, id)
		}
		if len(st.quarantine) > 0 {
			if s.Quarantined == nil {
				s.Quarantined = map[int][]string{}
			}
			s.Quarantined[id] = sortedKeys(st.quarantine)
		}
	}
	s.NeverBuilt = len(e.frags) - s.CachedObjects
	if e.rebuilds > 0 {
		last := e.lastRebuild
		s.LastRebuild = &last
	}
	if e.store != nil {
		ps := e.store.Stats()
		s.Persist = &ps
	}
	s.SnapshotRestored = e.snapRestored
	return s
}

// recordRebuild feeds a completed rebuild's stats into the metric families
// and annotates the rebuild root span with the headline numbers.
func (e *Engine) recordRebuild(root *telemetry.Span, st *RebuildStats) {
	e.metrics.rebuilds.Inc()
	e.metrics.fragCompiles.Add(uint64(len(st.Fragments)))
	e.metrics.cacheHits.Add(uint64(st.CacheHits))
	e.metrics.cacheMisses.Add(uint64(len(st.Fragments) - st.CacheHits))
	e.metrics.funcCompiles.Add(uint64(st.FuncsCompiled))
	e.metrics.degraded.Add(uint64(st.Degraded))
	e.metrics.quarantined.Add(uint64(st.Quarantined))
	e.metrics.deferred.Add(uint64(st.Deferred))
	e.metrics.rebuildDur.Observe(st.Total)
	e.metrics.linkDur.Observe(st.LinkDur)
	for i := range st.Fragments {
		fc := &st.Fragments[i]
		e.metrics.fragDur.Observe(fc.Materialize + fc.Opt + fc.CodeGen)
	}
	e.metrics.workers.Set(int64(st.Workers))
	e.metrics.activeProbes.Set(int64(e.Manager.NumActive()))
	mode := "full"
	if st.IncrementalLink {
		mode = "incremental"
	}
	root.SetAttr("link_mode", mode)
	root.SetAttrInt("fragments", int64(len(st.Fragments)))
	root.SetAttrInt("cache_hits", int64(st.CacheHits))
	root.SetAttrInt("workers", int64(st.Workers))
	if st.Degraded > 0 {
		root.SetAttrInt("degraded", int64(st.Degraded))
	}
	if st.Deferred > 0 {
		root.SetAttrInt("deferred", int64(st.Deferred))
	}
}

// observeFragSpan finishes a fragment span from its staged result.
func observeFragSpan(fs *telemetry.Span, out *fragOut) {
	if fs == nil {
		return
	}
	if out.fc.CacheHit {
		fs.SetAttr("cache_hit", "true")
	}
	if out.fc.WarmHit {
		fs.SetAttr("warm_hit", "true")
	}
	if out.fc.Degraded {
		fs.SetAttr("degraded", "true")
		fs.SetAttrInt("level", int64(out.fc.Level))
	}
	if out.fc.QuarantinedPass != "" {
		fs.SetAttr("quarantined_pass", out.fc.QuarantinedPass)
	}
	if out.fc.Deferred {
		fs.SetAttr("deferred", "true")
		fs.SetAttr("deferred_cause", out.fc.DeferredCause)
	}
	fs.EndErr(out.err)
}
