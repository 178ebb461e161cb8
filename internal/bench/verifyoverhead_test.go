package bench

import (
	"strings"
	"testing"
)

// TestRunVerifyOverheadShape: both arms must produce real measurements on
// every workload scale, and the boundary arm must serve a meaningful share
// of its per-function checks from the content-hash verification cache.
func TestRunVerifyOverheadShape(t *testing.T) {
	rows, err := RunVerifyOverhead(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(toggleWorkloads) {
		t.Fatalf("rows = %d, want %d", len(rows), len(toggleWorkloads))
	}
	for _, r := range rows {
		if r.OffP50MS <= 0 || r.BoundaryP50MS <= 0 {
			t.Errorf("%s: degenerate latencies: %+v", r.Program, r)
		}
		if r.OverheadPct < 0 {
			t.Errorf("%s: negative overhead %.2f%%", r.Program, r.OverheadPct)
		}
		if r.CacheHitPct <= 0 {
			t.Errorf("%s: verification cache never hit (%.1f%%)", r.Program, r.CacheHitPct)
		}
	}
}

// TestVerifyOverheadArtifact pins the artifact fold and the absolute budget
// gate: overhead_pct is compared against VerifyOverheadBudgetPct, not
// against the reference's value.
func TestVerifyOverheadArtifact(t *testing.T) {
	rows := []VerifyOverheadResult{
		{Program: "a", BoundaryP50MS: 1, BoundaryP99MS: 2, OverheadPct: 1.5, CacheHitPct: 80},
		{Program: "b", BoundaryP50MS: 3, BoundaryP99MS: 4, OverheadPct: 3.0, CacheHitPct: 90},
	}
	a := NewArtifact()
	a.AddVerifyOverhead(rows)
	m := a.Experiments["verify-overhead"]
	if m.P50MS != 3 || m.P99MS != 4 || m.OverheadPct != 3.0 {
		t.Fatalf("aggregation wrong: %+v", m)
	}

	ref := NewArtifact()
	ref.Experiments["verify-overhead"] = m
	within := NewArtifact()
	within.Experiments["verify-overhead"] = ArtifactMetrics{P50MS: 3, P99MS: 4, OverheadPct: 4.9}
	if bad := CompareArtifacts(ref, within, 15, 2); len(bad) != 0 {
		t.Fatalf("overhead within budget flagged: %v", bad)
	}
	over := NewArtifact()
	over.Experiments["verify-overhead"] = ArtifactMetrics{P50MS: 3, P99MS: 4, OverheadPct: 7.5}
	bad := CompareArtifacts(ref, over, 15, 2)
	found := false
	for _, b := range bad {
		if strings.Contains(b, "budget") {
			found = true
		}
	}
	if !found {
		t.Fatalf("over-budget overhead not flagged: %v", bad)
	}
	// The budget applies to the current run even when the reference predates
	// the experiment.
	if bad := CompareArtifacts(NewArtifact(), over, 15, 2); len(bad) == 0 {
		t.Fatal("over-budget overhead passed against an old reference")
	}
}
