package cov

import (
	"testing"

	"odin/internal/core"
	"odin/internal/progen"
)

// TestRunInputAllocBudget pins the steady-state allocation cost of one
// execution with every probe compiled in (OdinCov-NoPrune): each block calls
// the coverage hook, so a per-call argument slice, a per-run call stack or a
// per-run machine would show here as an allocation per hook call. What may
// remain is the output string RunProgram returns.
func TestRunInputAllocBudget(t *testing.T) {
	const budget = 2
	for _, name := range []string{"json", "sqlite"} {
		prof, ok := progen.ByName(name)
		if !ok {
			t.Fatalf("no suite program %q", name)
		}
		tool, err := New(prof.Generate(), core.Options{Variant: core.VariantOdin}, false)
		if err != nil {
			t.Fatal(err)
		}
		input := []byte("fuzzing seed")
		res := tool.RunInput(input) // also grows the machine's scratch
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		var hooks uint64
		for _, p := range tool.Probes {
			hooks += p.Hits
		}
		if hooks < 20 {
			t.Fatalf("%s: only %d hook calls per run: the budget would pin nothing", name, hooks)
		}
		allocs := testing.AllocsPerRun(50, func() { tool.RunInput(input) })
		t.Logf("%s: %.0f allocs per RunInput, %d hook calls", name, allocs, hooks)
		if allocs > budget {
			t.Errorf("%s: %.0f allocs per RunInput, budget %d", name, allocs, budget)
		}
		tool.Engine.Close()
	}
}
