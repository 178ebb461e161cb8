// Benchmark artifacts: a small, committed JSON summary of the performance
// trajectory (BENCH_<n>.json at the repo root) that CI regresses against.
// The artifact intentionally stores only scale-free or slowly-drifting
// aggregates — percentiles, hit rates, allocation counts — not raw samples,
// so a 15%-band comparison stays meaningful across machines of similar
// class, while budgets and invariants (verification overhead, warm-start
// speedup, dropped tickets) are checked absolutely.
package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"odin/internal/persist"
)

// ArtifactMetrics is one experiment's summary in a benchmark artifact.
type ArtifactMetrics struct {
	// P50MS/P99MS are the experiment's headline latency percentiles
	// (per-toggle rebuild latency for verify-overhead, compile wall-clock per
	// program for parallel, ticket latency for storm).
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// FragCacheHitPct is the fragment-level cache-hit rate where the
	// experiment measures it (0 otherwise).
	FragCacheHitPct float64 `json:"frag_cache_hit_pct"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// OverheadPct is the verify-overhead experiment's headline: the
	// boundaries verification tier's worst-case p50 rebuild-latency overhead
	// across workload scales. CI gates it against an absolute budget
	// (VerifyOverheadBudgetPct), not a drift band.
	OverheadPct float64 `json:"overhead_pct,omitempty"`
	// ColdP50MS and SpeedupX are the cold-vs-warm experiment's headline: the
	// cold first-build p50 and the cold/warm p50 ratio. CI gates SpeedupX
	// against the absolute WarmSpeedupFloor, not a drift band — the warm
	// start must keep paying for itself.
	ColdP50MS float64 `json:"cold_p50_ms,omitempty"`
	SpeedupX  float64 `json:"speedup_x,omitempty"`
	// IsolationX is the serve-storm experiment's headline: worst healthy-
	// tenant p99 with a hostile tenant storming, over the no-hostile
	// baseline. CI gates it against the absolute ServeIsolationFactor, and
	// DroppedHealthy must stay zero exactly.
	IsolationX     float64 `json:"isolation_x,omitempty"`
	DroppedHealthy int     `json:"dropped_healthy,omitempty"`
	// FailoverP99MS is the serve-chaos experiment's headline: the worst
	// shard-failover unavailability window (begin-swap to end-swap) of the
	// restart arm. CI gates it against the absolute
	// ChaosFailoverBudgetMS budget, and DroppedHealthy must stay zero —
	// failover parks in-flight requests, it never sheds them.
	FailoverP99MS float64 `json:"failover_p99_ms,omitempty"`
}

// Artifact is the schema of BENCH_<n>.json.
type Artifact struct {
	Schema      int                        `json:"schema"`
	Experiments map[string]ArtifactMetrics `json:"experiments"`
}

// ArtifactSchema is the current artifact schema version.
const ArtifactSchema = 1

// NewArtifact returns an empty artifact at the current schema.
func NewArtifact() *Artifact {
	return &Artifact{Schema: ArtifactSchema, Experiments: map[string]ArtifactMetrics{}}
}

// AddVerifyOverhead folds the verify-overhead rows into the artifact: the
// boundaries arm's worst-case percentiles and the worst overhead percentage.
func (a *Artifact) AddVerifyOverhead(rows []VerifyOverheadResult) {
	if len(rows) == 0 {
		return
	}
	var m ArtifactMetrics
	for _, r := range rows {
		m.P50MS = maxf(m.P50MS, r.BoundaryP50MS)
		m.P99MS = maxf(m.P99MS, r.BoundaryP99MS)
		m.OverheadPct = maxf(m.OverheadPct, r.OverheadPct)
	}
	a.Experiments["verify-overhead"] = m
}

// AddParallel folds the parallel-recompilation rows into the artifact: the
// per-program full-rebuild compile wall-clock distribution and the unchanged-
// rebuild fragment hit rate.
func (a *Artifact) AddParallel(rows []ParallelRow) {
	if len(rows) == 0 {
		return
	}
	var walls []float64
	var m ArtifactMetrics
	for _, r := range rows {
		walls = append(walls, r.ParallelWallMS)
		m.FragCacheHitPct += r.CacheHitPct / float64(len(rows))
	}
	m.P50MS = percentileF(walls, 50)
	m.P99MS = percentileF(walls, 99)
	a.Experiments["parallel"] = m
}

// AddColdWarm folds the cold-vs-warm rows into the artifact: the warm arm's
// worst-case percentiles, the worst (smallest) speedup across scales, and
// the mean warm-hit rate. P50MS/P99MS record the warm arm — that is the
// steady-state restart cost users pay — while ColdP50MS keeps the cold
// reference the speedup was computed against.
func (a *Artifact) AddColdWarm(rows []ColdWarmResult) {
	if len(rows) == 0 {
		return
	}
	var m ArtifactMetrics
	for _, r := range rows {
		m.P50MS = maxf(m.P50MS, r.WarmP50MS)
		m.P99MS = maxf(m.P99MS, r.WarmP99MS)
		m.ColdP50MS = maxf(m.ColdP50MS, r.ColdP50MS)
		if m.SpeedupX == 0 || r.SpeedupX < m.SpeedupX {
			m.SpeedupX = r.SpeedupX
		}
		m.FragCacheHitPct += r.WarmHitPct / float64(len(rows))
	}
	a.Experiments["cold-warm"] = m
}

// AddStorm folds the supervisor-storm rows into the artifact: worst-case
// ticket latency percentiles across programs.
func (a *Artifact) AddStorm(rows []StormResult) {
	if len(rows) == 0 {
		return
	}
	var m ArtifactMetrics
	for _, r := range rows {
		m.P50MS = maxf(m.P50MS, ms(r.P50.Microseconds()))
		m.P99MS = maxf(m.P99MS, ms(r.P99.Microseconds()))
	}
	a.Experiments["storm"] = m
}

// AddServeStorm folds the serve-storm summary into the artifact: the worst
// healthy tenant's latency percentiles from the hostile arm (the number a
// fleet operator lives with), plus the isolation ratio and drop count the
// gate checks absolutely.
func (a *Artifact) AddServeStorm(s *ServeStormSummary) {
	if s == nil {
		return
	}
	var m ArtifactMetrics
	for _, r := range s.Hostile {
		m.P50MS = maxf(m.P50MS, durMS(r.P50))
		m.P99MS = maxf(m.P99MS, durMS(r.P99))
	}
	m.IsolationX = s.IsolationX
	m.DroppedHealthy = s.DroppedHealthy
	a.Experiments["serve-storm"] = m
}

// WriteFile writes the artifact as indented JSON. The write is atomic
// (temp + fsync + rename), so a crashed or interrupted bench run can never
// leave a torn BENCH_<n>.json for the CI gate to trip over.
func (a *Artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// LoadArtifact reads a committed artifact. A missing or malformed baseline
// gets an actionable error: the usual cause is pointing -bench-compare at an
// artifact that was never recorded (or recorded by an older schema).
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("bench: baseline artifact %s does not exist; record one first with -bench-out %s", path, path)
		}
		return nil, fmt.Errorf("bench: reading baseline artifact %s: %w", path, err)
	}
	a := &Artifact{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("bench: baseline artifact %s is not valid artifact JSON (%v); re-record it with -bench-out", path, err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Errorf("bench: baseline artifact %s has schema %d, this binary speaks %d; re-record it with -bench-out", path, a.Schema, ArtifactSchema)
	}
	if len(a.Experiments) == 0 {
		return nil, fmt.Errorf("bench: baseline artifact %s records no experiments; re-record it with -bench-out", path)
	}
	return a, nil
}

// CompareArtifacts checks cur against the committed reference ref and
// returns human-readable regression descriptions (empty = pass).
//
// Latency and allocation metrics regress when they exceed the reference by
// more than tolPct percent AND by more than floorMS milliseconds (floor
// applies to latencies only; allocations use tolPct alone with a 64-object
// absolute floor). Experiments present in ref but missing from cur are
// regressions (the trajectory must not silently lose coverage); new
// experiments in cur pass.
// The verify-overhead experiment's OverheadPct is gated against the absolute
// VerifyOverheadBudgetPct budget rather than drift from the reference: the
// acceptance criterion is "verification costs at most 5% of p50", not
// "verification costs what it used to". The cold-warm experiment's SpeedupX
// is likewise gated against the absolute WarmSpeedupFloor.
func CompareArtifacts(ref, cur *Artifact, tolPct, floorMS float64) []string {
	var bad []string
	worse := func(got, want, floor float64) bool {
		return got > want*(1+tolPct/100) && got-want > floor
	}
	for name, r := range ref.Experiments {
		c, ok := cur.Experiments[name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: experiment missing from current run", name))
			continue
		}
		// Ratio-gated experiments (cold-warm records SpeedupX) skip the raw
		// latency drift bands: restart latencies are machine-dependent, and
		// the cold/warm ratio — both arms measured on the same machine in
		// the same run — is the jitter-immune invariant, gated absolutely
		// below. serve-chaos (records FailoverP99MS) likewise: its commit
		// tail is dominated by the injected stall plus the failover window,
		// both gated absolutely, so drift bands would only add noise.
		if r.SpeedupX == 0 && r.FailoverP99MS == 0 {
			if worse(c.P99MS, r.P99MS, floorMS) {
				bad = append(bad, fmt.Sprintf("%s: p99 %.3fms exceeds recorded %.3fms by >%g%% (+%.1fms floor)",
					name, c.P99MS, r.P99MS, tolPct, floorMS))
			}
			if worse(c.P50MS, r.P50MS, floorMS) {
				bad = append(bad, fmt.Sprintf("%s: p50 %.3fms exceeds recorded %.3fms by >%g%% (+%.1fms floor)",
					name, c.P50MS, r.P50MS, tolPct, floorMS))
			}
		}
		if r.AllocsPerOp > 0 && worse(c.AllocsPerOp, r.AllocsPerOp, 64) {
			bad = append(bad, fmt.Sprintf("%s: allocs/op %.0f exceeds recorded %.0f by >%g%%",
				name, c.AllocsPerOp, r.AllocsPerOp, tolPct))
		}
	}
	for name, c := range cur.Experiments {
		if c.OverheadPct > VerifyOverheadBudgetPct {
			bad = append(bad, fmt.Sprintf("%s: verification overhead %.1f%% exceeds the %.0f%% budget",
				name, c.OverheadPct, VerifyOverheadBudgetPct))
		}
		// The warm-start floor is absolute for the recorded trajectory (the
		// artifact must prove >=5x on a quiet machine); the live re-measure
		// gets the same jitter tolerance as the latency gates — a loaded CI
		// box squeezing 5.4x to 4.9x is noise, a drop to 2x is a regression.
		if c.SpeedupX > 0 && c.SpeedupX*(1+tolPct/100) < WarmSpeedupFloor {
			bad = append(bad, fmt.Sprintf("%s: warm-start speedup %.1fx below the %.0fx floor (beyond %g%% tolerance)",
				name, c.SpeedupX, WarmSpeedupFloor, tolPct))
		}
		// Tenant isolation is gated absolutely too: hostile-arm healthy p99
		// within ServeIsolationFactor of baseline (with the usual jitter
		// tolerance), and not one healthy ticket dropped — a drop means the
		// admission ladder leaked hostile pressure onto a healthy tenant.
		if c.IsolationX > 0 && c.IsolationX > ServeIsolationFactor*(1+tolPct/100) {
			bad = append(bad, fmt.Sprintf("%s: hostile-tenant isolation %.2fx exceeds the %.1fx bound (beyond %g%% tolerance)",
				name, c.IsolationX, ServeIsolationFactor, tolPct))
		}
		if c.DroppedHealthy > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d healthy tickets dropped under hostile load (must be 0)",
				name, c.DroppedHealthy))
		}
		// Failover windows are gated absolutely: a wedged shard's restart —
		// abandon the wedged slot, warm reboot, ledger replay — must land
		// inside the budget.
		if c.FailoverP99MS > ChaosFailoverBudgetMS {
			bad = append(bad, fmt.Sprintf("%s: failover p99 %.0fms exceeds the %dms budget",
				name, c.FailoverP99MS, ChaosFailoverBudgetMS))
		}
	}
	for name, r := range ref.Experiments {
		if r.SpeedupX > 0 && r.SpeedupX < WarmSpeedupFloor {
			bad = append(bad, fmt.Sprintf("%s: recorded warm-start speedup %.1fx below the %.0fx floor; re-record on a quiet machine or fix the regression",
				name, r.SpeedupX, WarmSpeedupFloor))
		}
	}
	return bad
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func percentileF(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort; tiny inputs
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	i := len(s) * p / 100
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
