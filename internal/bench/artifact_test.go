package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactRoundTrip: AddColdWarm + WriteFile + LoadArtifact preserve the
// recorded metrics.
func TestArtifactRoundTrip(t *testing.T) {
	rows := []ColdWarmResult{
		{Program: "a", WarmP50MS: 1, WarmP99MS: 4, ColdP50MS: 9, SpeedupX: 9, WarmHitPct: 80},
		{Program: "b", WarmP50MS: 2, WarmP99MS: 3, ColdP50MS: 7, SpeedupX: 6, WarmHitPct: 90},
	}
	a := NewArtifact()
	a.AddColdWarm(rows)
	m := a.Experiments["cold-warm"]
	if m.P99MS != 4 || m.P50MS != 2 || m.ColdP50MS != 9 || m.SpeedupX != 6 {
		t.Fatalf("aggregation wrong: %+v", m)
	}
	if m.FragCacheHitPct != 85 {
		t.Fatalf("hit rate mean = %v, want 85", m.FragCacheHitPct)
	}
	path := filepath.Join(t.TempDir(), "BENCH_t.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ArtifactSchema || got.Experiments["cold-warm"] != m {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// TestCompareArtifacts exercises the regression gate's decision table.
func TestCompareArtifacts(t *testing.T) {
	ref := NewArtifact()
	ref.Experiments["storm"] = ArtifactMetrics{P50MS: 5, P99MS: 10, AllocsPerOp: 500}
	mk := func(mut func(*ArtifactMetrics)) *Artifact {
		cur := NewArtifact()
		m := ref.Experiments["storm"]
		mut(&m)
		cur.Experiments["storm"] = m
		return cur
	}
	check := func(name string, cur *Artifact, wantSubstr string) {
		t.Helper()
		bad := CompareArtifacts(ref, cur, 15, 2)
		if wantSubstr == "" {
			if len(bad) != 0 {
				t.Fatalf("%s: unexpected regressions: %v", name, bad)
			}
			return
		}
		if len(bad) == 0 {
			t.Fatalf("%s: regression not detected", name)
		}
		found := false
		for _, b := range bad {
			if strings.Contains(b, wantSubstr) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: regressions %v lack %q", name, bad, wantSubstr)
		}
	}

	check("identical", mk(func(m *ArtifactMetrics) {}), "")
	// Within tolerance: +10% on p99.
	check("small drift", mk(func(m *ArtifactMetrics) { m.P99MS = 11 }), "")
	// Over tolerance but under the 2ms floor: 0.5ms -> 0.6ms equivalents.
	small := NewArtifact()
	small.Experiments["storm"] = ArtifactMetrics{P99MS: 0.5}
	smallCur := NewArtifact()
	smallCur.Experiments["storm"] = ArtifactMetrics{P99MS: 1.2}
	if bad := CompareArtifacts(small, smallCur, 15, 2); len(bad) != 0 {
		t.Fatalf("sub-floor jitter flagged: %v", bad)
	}
	// Real p99 regression: +50% and +5ms.
	check("p99 regression", mk(func(m *ArtifactMetrics) { m.P99MS = 15 }), "p99")
	// Allocation blow-up.
	check("alloc regression", mk(func(m *ArtifactMetrics) { m.AllocsPerOp = 1200 }), "allocs/op")
	// Missing experiment.
	check("missing", NewArtifact(), "missing")
}
