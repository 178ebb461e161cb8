package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"odin/internal/irtext"
	"odin/internal/link"
	"odin/internal/rt"
	"odin/internal/telemetry"
	"odin/internal/vm"
)

// manyFuncSrc builds a program with n independent noinline functions plus a
// main that sums them, so MaxPartition yields one fragment per function.
func manyFuncSrc(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `
func @f%d(%%x: i64) -> i64 noinline {
entry:
  %%a = mul i64 %%x, %d
  %%b = add i64 %%a, %d
  %%c = xor i64 %%b, %%x
  ret i64 %%c
}
`, i, i+3, i*7+1)
	}
	sb.WriteString("func @main(%x: i64) -> i64 {\nentry:\n")
	fmt.Fprintf(&sb, "  %%s0 = add i64 %%x, 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  %%r%d = call i64 @f%d(i64 %%x)\n", i, i)
		fmt.Fprintf(&sb, "  %%s%d = add i64 %%s%d, %%r%d\n", i+1, i, i)
	}
	fmt.Fprintf(&sb, "  ret i64 %%s%d\n}\n", n)
	return sb.String()
}

// TestPoolDeterminism: the same module and probe set must produce an
// identical RebuildStats.Fragments order and an identical linked image
// whether compiled by one worker or eight.
func TestPoolDeterminism(t *testing.T) {
	src := manyFuncSrc(12)
	build := func(workers int) (*Engine, *RebuildStats) {
		m := irtext.MustParse("m", src)
		e, err := New(m, Options{Variant: VariantMax, Workers: workers, ExtraBuiltins: []string{"__test_hit"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range []string{"f0", "f5", "f11", "main"} {
			f := e.Pristine.LookupFunc(fn)
			e.Manager.Add(&hookProbe{fnName: fn, block: f.Blocks[0], id: int64(len(fn))})
		}
		_, stats, err := e.BuildAll()
		if err != nil {
			t.Fatal(err)
		}
		return e, stats
	}
	e1, st1 := build(1)
	e8, st8 := build(8)

	if st1.Workers != 1 || st8.Workers != 8 {
		t.Fatalf("workers recorded as %d / %d", st1.Workers, st8.Workers)
	}
	if len(st1.Fragments) != len(st8.Fragments) {
		t.Fatalf("fragment counts differ: %d vs %d", len(st1.Fragments), len(st8.Fragments))
	}
	for i := range st1.Fragments {
		if st1.Fragments[i].FragID != st8.Fragments[i].FragID {
			t.Fatalf("fragment order differs at %d: %d vs %d (order must be by ID, not completion)",
				i, st1.Fragments[i].FragID, st8.Fragments[i].FragID)
		}
	}
	x1, x8 := e1.Executable(), e8.Executable()
	if !reflect.DeepEqual(x1.Funcs, x8.Funcs) {
		t.Fatal("linked code differs between Workers=1 and Workers=8")
	}
	if !reflect.DeepEqual(x1.Data, x8.Data) {
		t.Fatal("linked data differs between Workers=1 and Workers=8")
	}
	r1, err1 := vmRun(x1, "main", 9)
	r8, err8 := vmRun(x8, "main", 9)
	if err1 != nil || err8 != nil || r1 != r8 {
		t.Fatalf("execution differs: %d,%v vs %d,%v", r1, err1, r8, err8)
	}
}

func vmRun(exe *link.Executable, fn string, args ...int64) (int64, error) {
	mach := vm.New(exe)
	mach.Env.Builtins["__test_hit"] = func(env *rt.Env, args []int64) (int64, error) { return 0, nil }
	return mach.Run(fn, args...)
}

// TestPoolUnchangedRebuild: a second BuildAll with unchanged probes must
// recompile zero fragments (empty-dirty fast path), and a rebuild that
// schedules every fragment without an IR change must be satisfied entirely
// by the content-hash cache.
func TestPoolUnchangedRebuild(t *testing.T) {
	m := irtext.MustParse("m", manyFuncSrc(6))
	e, err := New(m, Options{Variant: VariantMax, Workers: 8, ExtraBuiltins: []string{"__test_hit"}})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, fn := range []string{"f1", "f4"} {
		f := e.Pristine.LookupFunc(fn)
		ids = append(ids, e.Manager.Add(&hookProbe{fnName: fn, block: f.Blocks[0], id: 1}))
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}

	// Unchanged probes: nothing dirty, nothing never-built — zero compiles.
	_, st2, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Fragments) != 0 || st2.CacheHits != 0 {
		t.Fatalf("unchanged BuildAll compiled %d fragments (%d hits), want 0", len(st2.Fragments), st2.CacheHits)
	}

	// Probes marked changed but instrumenting identically: the fragments
	// are scheduled, materialized, and then skipped on hash match.
	for _, id := range ids {
		if err := e.Manager.MarkChanged(id); err != nil {
			t.Fatal(err)
		}
	}
	_, st3, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(st3.Fragments) == 0 || st3.CacheHits != len(st3.Fragments) {
		t.Fatalf("cache hits = %d of %d scheduled fragments, want 100%%", st3.CacheHits, len(st3.Fragments))
	}

	// MarkAllDirty schedules the whole plan; still 100% hits.
	e.MarkAllDirty()
	_, st4, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(st4.Fragments) != len(e.Plan.Fragments) || st4.CacheHits != len(st4.Fragments) {
		t.Fatalf("MarkAllDirty rebuild: %d fragments, %d hits, want all %d hit",
			len(st4.Fragments), st4.CacheHits, len(e.Plan.Fragments))
	}
	if !st4.IncrementalLink {
		t.Fatal("unchanged-object relink did not take the incremental path")
	}
	if r, err := vmRun(e.Executable(), "main", 3); err != nil || r == 0 {
		t.Fatalf("after cached rebuild: main(3) = %d, %v", r, err)
	}
}

// TestPoolErrorPropagation: poisoned fragments must cancel the pool without
// deadlock, the error must name every fragment that failed, and the cache
// must be committed only when all fragments succeed.
func TestPoolErrorPropagation(t *testing.T) {
	m := irtext.MustParse("m", manyFuncSrc(10))
	e, err := New(m, Options{Variant: VariantMax, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	before := snapEngine(e)

	poisoned := map[int]bool{2: true, 5: true}
	e.testFragHook = func(id int) error {
		if poisoned[id] {
			return fmt.Errorf("poisoned fragment %d", id)
		}
		return nil
	}
	e.MarkAllDirty()
	_, _, err = e.BuildAll()
	if err == nil {
		t.Fatal("poisoned rebuild succeeded")
	}
	var rerr *RebuildError
	if !errors.As(err, &rerr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	for _, fe := range rerr.Failed {
		if !poisoned[fe.FragID] {
			t.Fatalf("non-poisoned fragment %d reported failed", fe.FragID)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(fe.FragID)) {
			t.Fatalf("error does not name fragment %d: %v", fe.FragID, err)
		}
	}
	if len(rerr.Failed) == 0 {
		t.Fatal("no failed fragments recorded")
	}
	if len(rerr.Failed)+len(rerr.Compiled)+len(rerr.Skipped) != len(e.Plan.Fragments) {
		t.Fatalf("partial-progress accounting incomplete: %d+%d+%d != %d",
			len(rerr.Failed), len(rerr.Compiled), len(rerr.Skipped), len(e.Plan.Fragments))
	}

	// The cache must be untouched by the failed rebuild.
	before.requireUnchanged(t, e, "after poisoned rebuild")

	// Removing the poison lets the same engine rebuild cleanly.
	e.testFragHook = nil
	e.MarkAllDirty()
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatalf("recovery rebuild: %v", err)
	}
	if st.CacheHits != len(st.Fragments) {
		t.Fatalf("recovery rebuild hits = %d/%d, want all (IR unchanged)", st.CacheHits, len(st.Fragments))
	}
	if r, err := vmRun(e.Executable(), "main", 2); err != nil {
		t.Fatalf("after recovery: %d, %v", r, err)
	}
}

// TestPoolSerialErrorNamesAllRan: with Workers=1 the serial fast path stops
// at the first failure and still reports it with partial progress.
func TestPoolSerialErrorNamesAllRan(t *testing.T) {
	m := irtext.MustParse("m", manyFuncSrc(6))
	e, err := New(m, Options{Variant: VariantMax, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.testFragHook = func(id int) error {
		if id == 3 {
			return fmt.Errorf("boom")
		}
		return nil
	}
	_, _, err = e.BuildAll()
	var rerr *RebuildError
	if !errors.As(err, &rerr) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if len(rerr.Failed) != 1 || rerr.Failed[0].FragID != 3 {
		t.Fatalf("failed = %+v, want fragment 3", rerr.Failed)
	}
	if n := cachedObjects(e); n != 0 {
		t.Fatalf("cache committed on failed initial build: %d entries", n)
	}
}

// TestPoolConcurrentCacheHitAccounting: cache-hit counting must stay exact
// when hits are recorded concurrently by pool workers, on both the per-
// rebuild stats and the cumulative telemetry counters, across repeated
// all-dirty rebuilds.
func TestPoolConcurrentCacheHitAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := irtext.MustParse("m", manyFuncSrc(16))
	e, err := New(m, Options{Variant: VariantMax, Workers: 8, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, st0, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	wantHits, wantMisses := st0.CacheHits, len(st0.Fragments)-st0.CacheHits

	const rounds = 5
	for i := 0; i < rounds; i++ {
		e.MarkAllDirty()
		_, st, err := e.BuildAll()
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits != len(st.Fragments) || len(st.Fragments) != len(e.Plan.Fragments) {
			t.Fatalf("round %d: %d hits of %d fragments, want all %d hit",
				i, st.CacheHits, len(st.Fragments), len(e.Plan.Fragments))
		}
		hits := 0
		for _, fc := range st.Fragments {
			if fc.CacheHit {
				hits++
			}
		}
		if hits != st.CacheHits {
			t.Fatalf("round %d: per-fragment hit flags (%d) disagree with CacheHits (%d)", i, hits, st.CacheHits)
		}
		wantHits += st.CacheHits
	}

	var gotHits, gotMisses uint64
	for _, sm := range reg.Snapshot() {
		switch sm.Name {
		case MetricCacheHits:
			gotHits = uint64(sm.Value)
		case MetricCacheMisses:
			gotMisses = uint64(sm.Value)
		}
	}
	if gotHits != uint64(wantHits) || gotMisses != uint64(wantMisses) {
		t.Fatalf("telemetry counted %d hits / %d misses, want %d / %d",
			gotHits, gotMisses, wantHits, wantMisses)
	}
}

// TestAffectedFragmentsFastPath: with nothing dirty the affected set is the
// never-built set in ascending order (nil once everything is built); a dirty
// symbol and a deferred fragment each put their fragment back.
func TestAffectedFragmentsFastPath(t *testing.T) {
	m := irtext.MustParse("m", manyFuncSrc(4))
	e, err := New(m, Options{Variant: VariantMax, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	all := e.affectedFragments(nil)
	if len(all) != len(e.Plan.Fragments) {
		t.Fatalf("cold affected = %v, want all %d fragments", all, len(e.Plan.Fragments))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("affected set not sorted: %v", all)
		}
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	if got := e.affectedFragments(nil); got != nil {
		t.Fatalf("affected after full build = %v, want nil", got)
	}
	last := len(e.frags) - 1
	e.frags[last].deferred = true
	sym := e.Plan.Fragments[0].Members[0]
	if got := e.affectedFragments([]string{sym}); !reflect.DeepEqual(got, []int{0, last}) {
		t.Fatalf("affected for dirty @%s + deferred fragment %d = %v", sym, last, got)
	}
}

// TestCommitIsOneGeneration: a reader polling the engine during
// multi-fragment rebuilds sees whole generations only. Every fragment of the
// first build appears together with its image and its rebuild count — never
// some fragments committed and others not — and the image changes only
// together with the count.
func TestCommitIsOneGeneration(t *testing.T) {
	m := irtext.MustParse("m", manyFuncSrc(24))
	e, err := New(m, Options{Variant: VariantMax, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := len(e.Plan.Fragments)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		exeOf := map[int]*link.Executable{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			before := e.Snapshot()
			exe := e.Executable()
			after := e.Snapshot()
			if c := before.CachedObjects; c != 0 && c != n || (c == 0) != (before.Rebuilds == 0) {
				t.Errorf("torn commit: %d of %d fragments cached at rebuild count %d", c, n, before.Rebuilds)
				return
			}
			if before.Rebuilds != after.Rebuilds {
				continue // a commit landed between the reads; exe may be either side's
			}
			if prev, seen := exeOf[before.Rebuilds]; seen && prev != exe {
				t.Errorf("image changed within rebuild count %d", before.Rebuilds)
				return
			}
			exeOf[before.Rebuilds] = exe
			if (exe == nil) != (before.Rebuilds == 0) {
				t.Errorf("rebuild count %d with image %p", before.Rebuilds, exe)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		e.InvalidateCache()
		if _, _, err := e.BuildAll(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	<-done
}
