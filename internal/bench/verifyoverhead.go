package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/irtext"
)

// VerifyOverheadResult is one workload's row of the verify-overhead
// experiment: a probe toggle loop is run twice on identical engines, once
// with rebuild-path verification off and once at the default boundaries tier
// (strict verification of the instrumented temporary IR and of every
// optimized fragment module, hash-cached per function), and the p50 latency
// delta is the price the default tier charges every rebuild.
type VerifyOverheadResult struct {
	Program string `json:"program"`
	Rounds  int    `json:"rounds"`
	// OffP50MS/OffP99MS are the VerifyOff arm's per-toggle rebuild latencies;
	// BoundaryP50MS/BoundaryP99MS are the VerifyBoundaries arm's.
	OffP50MS      float64 `json:"off_p50_ms"`
	OffP99MS      float64 `json:"off_p99_ms"`
	BoundaryP50MS float64 `json:"boundary_p50_ms"`
	BoundaryP99MS float64 `json:"boundary_p99_ms"`
	// OverheadPct is the boundaries tier's p50 overhead relative to the off
	// arm, clamped to 0 when the absolute delta is under the measurement
	// noise floor (verifyNoiseFloorMS).
	OverheadPct float64 `json:"overhead_pct"`
	// CacheHitPct is the boundary arm's verification-cache hit rate: the
	// share of per-function checks served from the content-hash cache
	// instead of re-running the strict verifier.
	CacheHitPct float64 `json:"cache_hit_pct"`
}

// VerifyOverheadBudgetPct is the CI budget for the boundaries tier: its p50
// rebuild-latency overhead must stay at or under this percentage.
const VerifyOverheadBudgetPct = 5.0

// verifyNoiseFloorMS is the absolute p50 delta below which the two arms are
// considered indistinguishable: sub-quarter-millisecond differences on a
// millisecond-scale rebuild are scheduler jitter, not verification cost.
const verifyNoiseFloorMS = 0.25

// toggleSrc synthesizes the experiment workload: groups COMDAT groups of
// funcsPerGroup noinline functions each (bonded into one fragment per group
// by the partitioner's innate pairs), plus a main that threads a value
// through every group. Function 0 of each group calls an internal sibling;
// the remaining members are independent.
func toggleSrc(groups, funcsPerGroup int) string {
	if funcsPerGroup < 2 {
		funcsPerGroup = 2
	}
	var sb strings.Builder
	for g := 0; g < groups; g++ {
		fmt.Fprintf(&sb, `
func @t%d_0(%%x: i64) -> i64 noinline comdat(tg%d) {
entry:
  %%h = call i64 @t%d_1(i64 %%x)
  %%r = add i64 %%h, %d
  ret i64 %%r
}
func @t%d_1(%%x: i64) -> i64 internal noinline comdat(tg%d) {
entry:
  %%r = mul i64 %%x, %d
  ret i64 %%r
}
`, g, g, g, g+1, g, g, g+2)
		for f := 2; f < funcsPerGroup; f++ {
			fmt.Fprintf(&sb, `
func @t%d_%d(%%x: i64) -> i64 noinline comdat(tg%d) {
entry:
  %%a = mul i64 %%x, %d
  %%b = add i64 %%a, %d
  %%r = xor i64 %%b, %%x
  ret i64 %%r
}
`, g, f, g, f+3, g*7+f)
		}
	}
	sb.WriteString("func @main(%x: i64) -> i64 {\nentry:\n  %s0 = add i64 %x, 0\n")
	n := 0
	for g := 0; g < groups; g++ {
		for f := 0; f < funcsPerGroup; f++ {
			if f == 1 {
				continue // internal sibling, called via t<g>_0
			}
			fmt.Fprintf(&sb, "  %%r%d = call i64 @t%d_%d(i64 %%s%d)\n", n, g, f, n)
			fmt.Fprintf(&sb, "  %%s%d = add i64 %%s%d, %%r%d\n", n+1, n, n)
			n++
		}
	}
	fmt.Fprintf(&sb, "  ret i64 %%s%d\n}\n", n)
	return sb.String()
}

// toggleProbe instruments its target's entry block, like the fuzzing tools'
// coverage probes. It resolves the target by name so one value works across
// engines.
type toggleProbe struct {
	fnName string
	id     int64
}

func (p *toggleProbe) PatchTarget() string { return p.fnName }

func (p *toggleProbe) Instrument(s *core.Sched) error {
	f := s.MapFunc(p.fnName)
	if f == nil {
		return fmt.Errorf("bench: %s not in recompilation", p.fnName)
	}
	nb := f.Blocks[0]
	hook := s.LookupFunction("__toggle_hit", &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(nb, len(nb.Phis()))
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, p.id))
	return nil
}

// toggleWorkloads are the experiment's three scales.
var toggleWorkloads = []struct {
	groups, funcs int
}{
	{4, 4},
	{8, 8},
	{16, 12},
}

// toggleArm toggles a probe on target for rounds rebuilds, starting from a
// collected heap, and returns the per-toggle latencies.
func toggleArm(e *core.Engine, target string, rounds int) ([]time.Duration, error) {
	probe := &toggleProbe{fnName: target, id: 1}
	var pid int
	on := false
	runtime.GC()
	lats := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		if on {
			if err := e.Manager.Remove(pid); err != nil {
				return nil, err
			}
		} else {
			pid = e.Manager.Add(probe)
		}
		on = !on
		t0 := time.Now()
		sched, err := e.Schedule()
		if err != nil {
			return nil, err
		}
		if _, _, err := sched.Rebuild(); err != nil {
			return nil, err
		}
		lats = append(lats, time.Since(t0))
	}
	return lats, nil
}

// RunVerifyOverhead measures the boundaries-tier verification overhead on the
// toggle workloads.
func RunVerifyOverhead(rounds int) ([]VerifyOverheadResult, error) {
	if rounds < 4 {
		rounds = 4
	}
	var out []VerifyOverheadResult
	for _, wl := range toggleWorkloads {
		r, err := runVerifyOverheadOne(wl.groups, wl.funcs, rounds)
		if err != nil {
			return nil, fmt.Errorf("bench: verify-overhead g%dx%d: %w", wl.groups, wl.funcs, err)
		}
		out = append(out, *r)
	}
	return out, nil
}

func runVerifyOverheadOne(groups, funcsPerGroup, rounds int) (*VerifyOverheadResult, error) {
	src := toggleSrc(groups, funcsPerGroup)
	name := fmt.Sprintf("verify-g%dx%d", groups, funcsPerGroup)
	target := "t0_2"

	mk := func(mode core.VerifyMode) (*core.Engine, error) {
		mm, err := irtext.Parse(name, src)
		if err != nil {
			return nil, err
		}
		e, err := core.New(mm, core.Options{
			Workers:       1,
			Verify:        mode,
			Telemetry:     Telemetry,
			ExtraBuiltins: []string{"__toggle_hit"},
		})
		if err != nil {
			return nil, err
		}
		if _, _, err := e.BuildAll(); err != nil {
			return nil, err
		}
		return e, nil
	}

	// A discarded warm-up pass (first-touch costs: lazy pools, linker
	// state), then two measured passes keeping the one with the lower p99,
	// so a single GC pause cannot masquerade as verification overhead.
	measure := func(e *core.Engine) ([]time.Duration, error) {
		if _, err := toggleArm(e, target, rounds); err != nil {
			return nil, err
		}
		l1, err := toggleArm(e, target, rounds)
		if err != nil {
			return nil, err
		}
		l2, err := toggleArm(e, target, rounds)
		if err != nil {
			return nil, err
		}
		if percentile(l2, 99) < percentile(l1, 99) {
			return l2, nil
		}
		return l1, nil
	}

	off, err := mk(core.VerifyOff)
	if err != nil {
		return nil, err
	}
	offLats, err := measure(off)
	if err != nil {
		return nil, err
	}
	bnd, err := mk(core.VerifyBoundaries)
	if err != nil {
		return nil, err
	}
	bndLats, err := measure(bnd)
	if err != nil {
		return nil, err
	}

	res := &VerifyOverheadResult{
		Program:       name,
		Rounds:        rounds,
		OffP50MS:      ms(percentile(offLats, 50).Microseconds()),
		OffP99MS:      ms(percentile(offLats, 99).Microseconds()),
		BoundaryP50MS: ms(percentile(bndLats, 50).Microseconds()),
		BoundaryP99MS: ms(percentile(bndLats, 99).Microseconds()),
	}
	if d := res.BoundaryP50MS - res.OffP50MS; d >= verifyNoiseFloorMS && res.OffP50MS > 0 {
		res.OverheadPct = 100 * d / res.OffP50MS
	}
	if hits, misses := bnd.VerifyCacheStats(); hits+misses > 0 {
		res.CacheHitPct = 100 * float64(hits) / float64(hits+misses)
	}
	return res, nil
}

// PrintVerifyOverhead renders the verify-overhead table.
func PrintVerifyOverhead(w io.Writer, rows []VerifyOverheadResult) {
	fmt.Fprintf(w, "Verify overhead — boundaries-tier strict verification cost per probe toggle rebuild (budget <=%.0f%% of p50)\n",
		VerifyOverheadBudgetPct)
	fmt.Fprintf(w, "%-15s %7s %9s %9s %9s %9s %9s %7s\n",
		"program", "rounds", "off-p50", "off-p99", "bnd-p50", "bnd-p99", "overhead", "hit%")
	over := 0
	for _, r := range rows {
		if r.OverheadPct > VerifyOverheadBudgetPct {
			over++
		}
		fmt.Fprintf(w, "%-15s %7d %9.3f %9.3f %9.3f %9.3f %8.1f%% %6.1f%%\n",
			r.Program, r.Rounds, r.OffP50MS, r.OffP99MS, r.BoundaryP50MS, r.BoundaryP99MS,
			r.OverheadPct, r.CacheHitPct)
	}
	if over == 0 {
		fmt.Fprintf(w, "PASS: every workload within the %.0f%% verification budget\n", VerifyOverheadBudgetPct)
	} else {
		fmt.Fprintf(w, "FAIL: %d workloads exceed the %.0f%% verification budget\n", over, VerifyOverheadBudgetPct)
	}
}
