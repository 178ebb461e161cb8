package core

import (
	"strings"
	"testing"

	"odin/internal/faultinject"
	"odin/internal/irtext"
	"odin/internal/telemetry"
)

func TestVerifyModeEnvResolution(t *testing.T) {
	t.Setenv("ODIN_VERIFY", "off")
	if got := VerifyDefault.resolve(); got != VerifyOff {
		t.Errorf("ODIN_VERIFY=off: resolve = %v, want off", got)
	}
	// An explicit mode wins over the environment.
	if got := VerifyAll.resolve(); got != VerifyAll {
		t.Errorf("explicit VerifyAll resolved to %v", got)
	}
	t.Setenv("ODIN_VERIFY", "garbage")
	if got := VerifyDefault.resolve(); got != VerifyBoundaries {
		t.Errorf("unrecognized ODIN_VERIFY: resolve = %v, want boundaries default", got)
	}
	t.Setenv("ODIN_VERIFY", "")
	if got := VerifyDefault.resolve(); got != VerifyBoundaries {
		t.Errorf("unset ODIN_VERIFY: resolve = %v, want boundaries default", got)
	}
}

// TestVerifyAllQuarantinesFaultedPass arms a rate-1 fault at a
// verify:<pass> site under the VerifyAll tier and asserts the full
// degradation story: the rebuild succeeds degraded, the failing pass is
// quarantined via the existing ladder, and the degraded image still
// computes the right answer.
func TestVerifyAllQuarantinesFaultedPass(t *testing.T) {
	box := &hookBox{}
	m := irtext.MustParse("m", manyFuncSrc(8))
	e, err := New(m, Options{Variant: VariantMax, Workers: 4, FaultHook: box.at, Verify: VerifyAll})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatalf("clean build under VerifyAll: %v", err)
	}
	ref, err := vmRun(e.Executable(), "main", 7)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	inj := faultinject.New(7).Arm(faultinject.Rule{Site: "verify:constprop", Kind: faultinject.KindError, Rate: 1})
	box.fn = inj.At
	e.InvalidateCache()
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatalf("verify-site fault must degrade, not fail: %v", err)
	}
	if inj.TotalInjected() == 0 {
		t.Fatal("no faults injected at verify:constprop")
	}
	if st.Degraded == 0 || st.Quarantined == 0 {
		t.Fatalf("degraded %d / quarantined %d, want both nonzero", st.Degraded, st.Quarantined)
	}
	quarantined := false
	for id := range e.Plan.Fragments {
		for _, p := range e.Snapshot().Quarantined[id] {
			if p == "constprop" {
				quarantined = true
			}
		}
	}
	if !quarantined {
		t.Fatal("constprop not quarantined on any fragment")
	}
	if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
		t.Fatalf("degraded image wrong: main(7) = %d, %v, want %d", r, rerr, ref)
	}
}

// TestVerifyBoundariesCachesCleanFunctions pins the verification cache: a
// second full rebuild of unchanged IR must serve every function's
// verified-clean status from the content-hash cache instead of re-verifying.
func TestVerifyBoundariesCachesCleanFunctions(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := irtext.MustParse("m", manyFuncSrc(8))
	e, err := New(m, Options{Variant: VariantMax, Workers: 2, Verify: VerifyBoundaries, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	h0, _ := e.VerifyCacheStats()
	e.InvalidateCache()
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	h1, _ := e.VerifyCacheStats()
	if h1 <= h0 {
		t.Fatalf("second rebuild of unchanged IR: %d -> %d cache hits, want growth", h0, h1)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{MetricVerifyChecks, MetricVerifyCacheHits, MetricVerifySeconds} {
		if !strings.Contains(sb.String(), "# TYPE "+family) {
			t.Errorf("family %s missing from telemetry exposition", family)
		}
	}
}

// TestVerifyOffSkipsRebuildVerification pins the zero-overhead arm: at
// VerifyOff the verified-clean table stays untouched (no verification ran) and
// rebuilds still work.
func TestVerifyOffSkipsRebuildVerification(t *testing.T) {
	m := irtext.MustParse("m", manyFuncSrc(4))
	e, err := New(m, Options{Variant: VariantMax, Workers: 2, Verify: VerifyOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	if h, miss := e.VerifyCacheStats(); h != 0 || miss != 0 || len(e.verified.clean) != 0 {
		t.Fatalf("VerifyOff touched the verification cache: hits=%d misses=%d", h, miss)
	}
}

// TestVerifiedTableTwoGenerations: both content states a probe toggle
// alternates between stay resident, a third evicts the oldest, a hit on the
// older one promotes it (so the snapshot carries the current body), and a
// zero hash — the empty slot — never matches.
func TestVerifiedTableTwoGenerations(t *testing.T) {
	v := verifiedTable{clean: map[string][2]uint64{}}
	if v.has("f", 0) || v.has("f", 111) {
		t.Fatal("empty table reports a verified function")
	}
	v.record("f", 111)
	v.record("f", 222)
	if !v.has("f", 111) || !v.has("f", 222) {
		t.Fatal("generation A evicted by generation B")
	}
	if got := v.newest()["f"]; got != 222 {
		t.Fatalf("newest = %d after touching 222 last, want 222", got)
	}
	v.has("f", 111)
	if got := v.newest()["f"]; got != 111 {
		t.Fatalf("newest = %d after a hit on 111, want 111", got)
	}
	v.record("f", 333)
	if v.has("f", 222) {
		t.Fatal("oldest generation must be evicted on third insert")
	}
	if !v.has("f", 111) || !v.has("f", 333) {
		t.Fatal("two newest generations must survive")
	}
	v.record("g", 0)
	if _, recorded := v.clean["g"]; recorded || v.has("g", 0) {
		t.Fatal("zero hash recorded or matched")
	}
}

// TestVerifiedTableToggleSteadyState: toggling one probe on and off
// alternates its function between two bodies. The first two rebuilds verify
// one new body each; from the third on every function of every rebuild is a
// hit, and nothing is verified again.
func TestVerifiedTableToggleSteadyState(t *testing.T) {
	e := hookEngine(t, groupSrc, Options{Variant: VariantOdin, Workers: 1, Verify: VerifyBoundaries})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	id := probeOn(t, e, "w1", 1)
	var hits, misses uint64
	for i := 0; i < 8; i++ {
		if _, _, err := rebuildOnce(e); err != nil {
			t.Fatal(err)
		}
		h, m := e.VerifyCacheStats()
		if i >= 2 && (m != misses || h == hits) {
			t.Fatalf("rebuild %d of the toggle loop: hits %d -> %d, misses %d -> %d, want a pure hit", i+1, hits, h, misses, m)
		}
		hits, misses = h, m
		if err := e.Manager.SetActive(id, i%2 != 0); err != nil {
			t.Fatal(err)
		}
	}
}
