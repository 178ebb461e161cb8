package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"odin/internal/core"
	"odin/internal/irtext"
)

// WarmSpeedupFloor is the cold-vs-warm experiment's acceptance floor: a
// warm start (engine constructed over a populated artifact cache and state
// snapshot, through its first full build) must be at least this many times
// faster at p50 than the same cold start. CI gates the recorded artifact
// against it absolutely — a warm start that stops paying for itself is a
// persistence regression regardless of drift bands.
const WarmSpeedupFloor = 5.0

// ColdWarmResult is one workload's row of the cold-vs-warm experiment: the
// engine-restart-to-first-executable window (core.New through BuildAll), with
// and without a populated cache directory + state snapshot, repeated over
// rounds engine restarts. The window is what a restarted production engine
// pays before it can serve: partitioning (survey cached in the snapshot),
// instrumentation verification (clean hashes carried by the snapshot), and
// per-fragment compilation (objects served by the artifact store).
type ColdWarmResult struct {
	Program    string `json:"program"`
	Groups     int    `json:"groups"`
	GroupFuncs int    `json:"group_funcs"`
	Rounds     int    `json:"rounds"`
	// ColdP50MS/ColdP99MS are restart-to-executable latencies with no
	// persistence configured; WarmP50MS/WarmP99MS restart onto a populated
	// cache directory and snapshot.
	ColdP50MS float64 `json:"cold_p50_ms"`
	ColdP99MS float64 `json:"cold_p99_ms"`
	WarmP50MS float64 `json:"warm_p50_ms"`
	WarmP99MS float64 `json:"warm_p99_ms"`
	// SpeedupX is ColdP50MS / WarmP50MS.
	SpeedupX float64 `json:"speedup_x"`
	// WarmHitPct is the fraction of fragments served from disk across all
	// warm rounds (100 = every fragment every round).
	WarmHitPct float64 `json:"warm_hit_pct"`
	// FuncsCompiledWarm counts functions that ran the middle and back end
	// across all warm rounds — 0 when the disk tier fully short-circuits.
	FuncsCompiledWarm int `json:"funcs_compiled_warm"`
	// RefMatch reports that every warm image was byte-identical to the cold
	// reference image.
	RefMatch bool `json:"ref_match"`
}

// coldWarmWorkloads are the experiment's scales: groups x group_funcs
// noinline functions comdat-bonded into groups fragments.
var coldWarmWorkloads = []struct {
	groups, funcs int
}{
	{8, 8},
	{16, 12},
}

// coldWarmSrc generates the restart workload. Unlike the toggleSrc stubs
// (3 instructions each — right for isolating toggle latency), these
// functions carry a small reduction loop plus a straight-line arithmetic
// chain, so the cold side pays representative optimization and codegen work
// per function and the measurement is not dominated by fixed per-engine
// overheads that both sides share.
func coldWarmSrc(groups, funcsPerGroup int) string {
	var sb strings.Builder
	for g := 0; g < groups; g++ {
		for f := 0; f < funcsPerGroup; f++ {
			fmt.Fprintf(&sb, `
func @w%d_%d(%%x: i64) -> i64 noinline comdat(wg%d) {
entry:
  br loop
loop:
  %%i = phi i64 [0, entry], [%%in, loop]
  %%acc = phi i64 [%%x, entry], [%%an, loop]
  %%t0 = mul i64 %%acc, %d
  %%t1 = add i64 %%t0, %d
  %%t2 = xor i64 %%t1, %%i
  %%t3 = shl i64 %%t2, 1
  %%t4 = lshr i64 %%t3, 2
  %%t5 = sub i64 %%t4, %%acc
  %%t6 = and i64 %%t5, 1048575
  %%t7 = or i64 %%t6, %d
  %%an = add i64 %%t7, %%i
  %%in = add i64 %%i, 1
  %%c = icmp slt i64 %%in, 6
  condbr %%c, loop, done
done:
  ret i64 %%an
}
`, g, f, g, 2*g+3, g*31+f*7+1, f+5)
		}
	}
	sb.WriteString("func @main(%x: i64) -> i64 {\nentry:\n  %s0 = add i64 %x, 0\n")
	n := 0
	for g := 0; g < groups; g++ {
		for f := 0; f < funcsPerGroup; f++ {
			fmt.Fprintf(&sb, "  %%r%d = call i64 @w%d_%d(i64 %%s%d)\n", n, g, f, n)
			fmt.Fprintf(&sb, "  %%s%d = add i64 %%s%d, %%r%d\n", n+1, n, n)
			n++
		}
	}
	fmt.Fprintf(&sb, "  ret i64 %%s%d\n}\n", n)
	return sb.String()
}

// RunColdWarm measures warm-start savings: for each workload it records the
// restart-to-executable latency of rounds cold engines (no persistence) and
// rounds warm engines (fresh engine, populated cache directory + snapshot),
// asserting every warm image is byte-identical to the cold reference.
//
// With baseDir == "" each workload uses a fresh temp directory, removed
// afterwards. A non-empty baseDir pins each workload's cache to a
// subdirectory of it (left on disk for post-run inspection with
// odin-partition -cache-dir/-snapshot); snapBase, when also non-empty,
// overrides where the per-workload snapshot files land.
func RunColdWarm(rounds int, baseDir, snapBase string) ([]ColdWarmResult, error) {
	if rounds < 3 {
		rounds = 3
	}
	var out []ColdWarmResult
	for _, wl := range coldWarmWorkloads {
		r, err := runColdWarmOne(wl.groups, wl.funcs, rounds, baseDir, snapBase)
		if err != nil {
			return nil, fmt.Errorf("bench: cold-warm g%dx%d: %w", wl.groups, wl.funcs, err)
		}
		out = append(out, *r)
	}
	return out, nil
}

func runColdWarmOne(groups, funcsPerGroup, rounds int, baseDir, snapBase string) (*ColdWarmResult, error) {
	src := coldWarmSrc(groups, funcsPerGroup)
	name := fmt.Sprintf("coldwarm-g%dx%d", groups, funcsPerGroup)

	var cacheDir, snapPath string
	if baseDir == "" {
		dir, err := os.MkdirTemp("", "odin-coldwarm-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cacheDir = filepath.Join(dir, "cache")
		snapPath = filepath.Join(dir, "state.snap")
	} else {
		wl := fmt.Sprintf("g%dx%d", groups, funcsPerGroup)
		cacheDir = filepath.Join(baseDir, wl)
		snapPath = filepath.Join(cacheDir, "state.snap")
		if snapBase != "" {
			snapPath = snapBase + "." + wl
		}
	}

	// build runs one engine restart — parse excluded, core.New through
	// BuildAll timed — and hands back its latency and stats. warm selects
	// the populated cache directory + snapshot; cold runs unconfigured.
	build := func(warm bool) (time.Duration, *core.RebuildStats, uint64, error) {
		mm, err := irtext.Parse(name, src)
		if err != nil {
			return 0, nil, 0, err
		}
		o := core.Options{
			Workers:   1,
			Telemetry: Telemetry,
			// The module is parsed fresh for each engine; both arms donate
			// it rather than paying the defensive clone.
			AdoptModule: true,
		}
		if warm {
			o.CacheDir = cacheDir
			o.SnapshotPath = snapPath
		}
		t0 := time.Now()
		e, err := core.New(mm, o)
		if err != nil {
			return 0, nil, 0, err
		}
		defer e.Close()
		exe, st, err := e.BuildAll()
		if err != nil {
			return 0, nil, 0, err
		}
		return time.Since(t0), st, exe.Fingerprint(), nil
	}

	// Cold reference fingerprint + cache/snapshot seeding (Close writes the
	// snapshot); both discarded from timing.
	_, _, ref, err := build(false)
	if err != nil {
		return nil, err
	}
	if _, _, _, err := build(true); err != nil {
		return nil, err
	}

	res := &ColdWarmResult{
		Program:    name,
		Groups:     groups,
		GroupFuncs: funcsPerGroup,
		Rounds:     rounds,
		RefMatch:   true,
	}
	var cold, warm []time.Duration
	warmHits, frags := 0, 0
	for i := 0; i < rounds; i++ {
		d, _, fp, err := build(false)
		if err != nil {
			return nil, err
		}
		if fp != ref {
			res.RefMatch = false
		}
		cold = append(cold, d)

		d, st, fp, err := build(true)
		if err != nil {
			return nil, err
		}
		if fp != ref {
			res.RefMatch = false
		}
		warm = append(warm, d)
		warmHits += st.WarmHits
		frags += len(st.Fragments)
		res.FuncsCompiledWarm += st.FuncsCompiled
	}

	res.ColdP50MS = ms(percentile(cold, 50).Microseconds())
	res.ColdP99MS = ms(percentile(cold, 99).Microseconds())
	res.WarmP50MS = ms(percentile(warm, 50).Microseconds())
	res.WarmP99MS = ms(percentile(warm, 99).Microseconds())
	if res.WarmP50MS > 0 {
		res.SpeedupX = res.ColdP50MS / res.WarmP50MS
	}
	if frags > 0 {
		res.WarmHitPct = 100 * float64(warmHits) / float64(frags)
	}
	return res, nil
}

// PrintColdWarm renders the cold-vs-warm table.
func PrintColdWarm(w io.Writer, rows []ColdWarmResult) {
	fmt.Fprintf(w, "Cold vs warm start — engine restart to first executable, empty vs populated artifact cache + snapshot\n")
	fmt.Fprintf(w, "%-18s %7s %9s %9s %9s %9s %9s %7s %5s\n",
		"program", "rounds", "cold-p50", "cold-p99", "warm-p50", "warm-p99", "speedup", "hit%", "ref")
	bad := 0
	for _, r := range rows {
		ok := "ok"
		if !r.RefMatch {
			ok = "FAIL"
			bad++
		}
		fmt.Fprintf(w, "%-18s %7d %8.3f %9.3f %9.3f %9.3f %8.1fx %6.1f%% %5s\n",
			r.Program, r.Rounds, r.ColdP50MS, r.ColdP99MS, r.WarmP50MS, r.WarmP99MS,
			r.SpeedupX, r.WarmHitPct, ok)
	}
	if bad == 0 {
		fmt.Fprintf(w, "PASS: every warm image is byte-identical to its cold reference\n")
	} else {
		fmt.Fprintf(w, "FAIL: %d workloads diverged from the cold reference\n", bad)
	}
}
