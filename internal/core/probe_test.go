package core

import (
	"math/rand"
	"slices"
	"testing"
)

// recount is Active and NumActive the slow way: every entry the manager
// holds, walked.
func recount(pm *PatchManager) []int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var out []int
	for id, e := range pm.probes {
		if e.active {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// TestPatchManagerActiveMatchesRecount drives random add / add-inactive /
// enable / disable / discard histories, with repeats and unknown IDs, and
// after every operation checks the kept active set against a recount.
func TestPatchManagerActiveMatchesRecount(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pm := NewPatchManager()
		for op := 0; op < 400; op++ {
			id := rng.Intn(pm.nextID + 2) // sometimes one the manager never gave out
			switch rng.Intn(6) {
			case 0:
				pm.Add(&nopProbe{target: "f"})
			case 1:
				pm.AddInactive(&nopProbe{target: "g"})
			case 2, 3:
				pm.SetActive(id, true)
			case 4:
				pm.Remove(id)
			case 5:
				pm.discard(id)
			}
			want := recount(pm)
			if got := pm.Active(); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: Active() = %v, recount %v", seed, op, got, want)
			}
			if got := pm.NumActive(); got != len(want) {
				t.Fatalf("seed %d op %d: NumActive() = %d, recount %d", seed, op, got, len(want))
			}
		}
	}
}

// BenchmarkPatchManagerActive is one rebuild's reads of the active set on a
// manager that has seen 8000 probes, 100 of them still active.
func BenchmarkPatchManagerActive(b *testing.B) {
	pm := NewPatchManager()
	for i := 0; i < 8000; i++ {
		id := pm.Add(&nopProbe{target: "f"})
		if i%80 != 0 {
			pm.Remove(id)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pm.Active()
		_ = pm.NumActive()
	}
}
