package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"odin/internal/faultinject"
	"odin/internal/irtext"
	"odin/internal/persist"
	"odin/internal/telemetry"
	"odin/internal/vm"
)

// persistEngine builds an engine over manyFuncSrc(n) with the persistent
// tier attached.
func persistEngine(t *testing.T, n int, opts Options) *Engine {
	t.Helper()
	m := irtext.MustParse("m", manyFuncSrc(n))
	if opts.Variant == 0 {
		opts.Variant = VariantMax
	}
	e, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestWarmStartByteIdentity is the tentpole invariant: a second engine on
// the same cache directory serves every fragment from disk, skips the
// compile pipeline, and produces an executable byte-identical to the cold
// build's.
func TestWarmStartByteIdentity(t *testing.T) {
	dir := t.TempDir()
	cold := persistEngine(t, 6, Options{CacheDir: dir})
	exeCold, stCold, err := cold.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if stCold.WarmHits != 0 {
		t.Fatalf("cold build reported %d warm hits", stCold.WarmHits)
	}
	ps, ok := cold.PersistStats()
	if !ok || ps.Stores == 0 || ps.Entries == 0 {
		t.Fatalf("cold build persisted nothing: %+v (ok=%v)", ps, ok)
	}
	if err := cold.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	warm := persistEngine(t, 6, Options{CacheDir: dir})
	exeWarm, stWarm, err := warm.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if stWarm.WarmHits != len(warm.Plan.Fragments) {
		t.Fatalf("warm build: %d warm hits, want all %d fragments", stWarm.WarmHits, len(warm.Plan.Fragments))
	}
	if stWarm.FuncsCompiled != 0 {
		t.Fatalf("warm build compiled %d functions, want 0", stWarm.FuncsCompiled)
	}
	if exeWarm.Fingerprint() != exeCold.Fingerprint() {
		t.Fatal("warm executable differs from cold executable")
	}
	if !reflect.DeepEqual(exeWarm.Funcs, exeCold.Funcs) || !reflect.DeepEqual(exeWarm.Data, exeCold.Data) {
		t.Fatal("warm image not byte-identical to cold image")
	}

	// The warm image must actually run, and agree with the cold one.
	got, err := vm.New(exeWarm).Run("main", 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := vm.New(exeCold).Run("main", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("warm main(3) = %d, cold = %d", got, want)
	}
}

// TestWarmStartCorruptionMatrix mutilates every persisted artifact in a
// given way, restarts on the same directory, and asserts warm start
// degrades to a byte-identical cold compile with the corrupt entries
// evicted and counted.
func TestWarmStartCorruptionMatrix(t *testing.T) {
	cases := []struct {
		name     string
		mutilate func(data []byte) []byte
		skew     bool
	}{
		{"truncate-half", func(d []byte) []byte { return d[:len(d)/2] }, false},
		{"zero-length", func(d []byte) []byte { return nil }, false},
		{"bit-flip", func(d []byte) []byte { d[len(d)-1] ^= 0x20; return d }, false},
		{"version-skew", func(d []byte) []byte { d[11]++; return d }, true},
		{"half-write", func(d []byte) []byte {
			for i := len(d) / 2; i < len(d); i++ {
				d[i] = 0xAA
			}
			return d
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cold := persistEngine(t, 4, Options{CacheDir: dir})
			exeCold, _, err := cold.BuildAll()
			if err != nil {
				t.Fatal(err)
			}
			cold.Close()

			mutilated := 0
			err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				mutilated++
				return os.WriteFile(path, tc.mutilate(data), 0o644)
			})
			if err != nil || mutilated == 0 {
				t.Fatalf("mutilated %d entries, err %v", mutilated, err)
			}

			warm := persistEngine(t, 4, Options{CacheDir: dir})
			exeWarm, st, err := warm.BuildAll()
			if err != nil {
				t.Fatalf("rebuild over corrupt cache must degrade, not fail: %v", err)
			}
			if st.WarmHits != 0 {
				t.Fatalf("%d warm hits from mutilated entries", st.WarmHits)
			}
			if exeWarm.Fingerprint() != exeCold.Fingerprint() {
				t.Fatal("degraded-warm executable differs from cold executable")
			}
			ps, ok := warm.PersistStats()
			if !ok {
				t.Fatal("no persist stats")
			}
			// version-skew across the whole directory is detected at Open via
			// the schema check inside each blob... entries carry the skewed
			// schema, so each Get classifies and evicts per-entry.
			if ps.CorruptEvicted == 0 {
				t.Fatalf("odin_persist_corrupt_evicted not incremented: %+v", ps)
			}
			// The corrupt entries were evicted and the cold recompile
			// republished; a third engine warm-starts cleanly again.
			warm.Close()
			again := persistEngine(t, 4, Options{CacheDir: dir})
			exeAgain, st3, err := again.BuildAll()
			if err != nil {
				t.Fatal(err)
			}
			if st3.WarmHits == 0 {
				t.Fatal("no warm hits after eviction and republish")
			}
			if exeAgain.Fingerprint() != exeCold.Fingerprint() {
				t.Fatal("republished warm image differs")
			}
		})
	}
}

// TestInvalidateCacheBypassesPersist: InvalidateCache must force real
// recompilation — the persistent tier holding the evicted objects under
// unchanged keys must not short-circuit it.
func TestInvalidateCacheBypassesPersist(t *testing.T) {
	dir := t.TempDir()
	e := persistEngine(t, 4, Options{CacheDir: dir})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	e.InvalidateCache()
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmHits != 0 || st.CacheHits != 0 {
		t.Fatalf("invalidated rebuild had warm=%d cache=%d hits, want 0/0", st.WarmHits, st.CacheHits)
	}
	if st.FuncsCompiled == 0 {
		t.Fatal("invalidated rebuild compiled nothing")
	}
	// The bypass lifts after the committed rebuild: a fresh engine (cold
	// memory) warm-starts from the store again.
	e.Close()
	warm := persistEngine(t, 4, Options{CacheDir: dir})
	if _, st2, err := warm.BuildAll(); err != nil || st2.WarmHits == 0 {
		t.Fatalf("post-invalidate warm start: hits=%d err=%v", st2.WarmHits, err)
	}
}

// TestPersistFaultSweep arms every persist:* site at rate 1 and asserts the
// engine neither crashes nor changes output — the verify-or-degrade
// contract under injected I/O failure.
func TestPersistFaultSweep(t *testing.T) {
	ref := persistEngine(t, 4, Options{})
	exeRef, _, err := ref.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic} {
		t.Run(string(kind), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.New(7).
				Arm(faultinject.Rule{Site: "persist:*", Kind: kind, Rate: 1})
			e := persistEngine(t, 4, Options{
				CacheDir:     dir,
				SnapshotPath: filepath.Join(dir, "engine.snap"),
				FaultHook:    inj.At,
				Telemetry:    telemetry.NewRegistry(),
			})
			exe, st, err := e.BuildAll()
			if err != nil {
				t.Fatalf("build under persist faults: %v", err)
			}
			if st.WarmHits != 0 {
				t.Fatalf("warm hits under total persist failure: %d", st.WarmHits)
			}
			if exe.Fingerprint() != exeRef.Fingerprint() {
				t.Fatal("output changed under persist faults")
			}
			if e.Close() != nil {
				// Close surfaces the snapshot-save fault; acceptable, but it
				// must not have crashed or corrupted anything.
				t.Log("close surfaced injected fault (expected)")
			}
		})
	}
}

// TestSnapshotRestoresEngineState: quarantine and deferral state written at
// Close must come back on the next engine, and a corrupt snapshot must
// degrade to a cold start.
func TestSnapshotRestoresEngineState(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "engine.snap")
	e := persistEngine(t, 4, Options{CacheDir: dir, SnapshotPath: snap})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	e.addQuarantine(1, "cse")
	e.addQuarantine(1, "licm")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	e2 := persistEngine(t, 4, Options{CacheDir: dir, SnapshotPath: snap})
	if !e2.SnapshotRestored() {
		t.Fatal("snapshot not restored")
	}
	if q := e2.Quarantined(1); !reflect.DeepEqual(q, []string{"cse", "licm"}) {
		t.Fatalf("restored quarantine = %v", q)
	}
	// Quarantined fragments never warm-load (a cold compile would route
	// around the quarantined passes); the rest of the plan does.
	_, st, err := e2.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmHits == 0 || st.WarmHits >= len(e2.Plan.Fragments) {
		t.Fatalf("warm hits = %d, want (0, %d)", st.WarmHits, len(e2.Plan.Fragments))
	}
	e2.Close()

	// Corrupt the snapshot: next engine starts cold, file is removed.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := persistEngine(t, 4, Options{SnapshotPath: snap})
	if e3.SnapshotRestored() {
		t.Fatal("corrupt snapshot restored")
	}
	if len(e3.Quarantined(1)) != 0 {
		t.Fatal("quarantine leaked from corrupt snapshot")
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot not removed")
	}

	// A snapshot from a different module is ignored (cold start, no crash).
	e4 := persistEngine(t, 4, Options{SnapshotPath: snap})
	e4.Close() // writes a snapshot for manyFuncSrc(4)
	m := irtext.MustParse("other", manyFuncSrc(7))
	e5, err := New(m, Options{Variant: VariantMax, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer e5.Close()
	if e5.SnapshotRestored() {
		t.Fatal("mismatched snapshot restored")
	}
}

// TestSnapshotCarriesVerifiedClean: the verified-clean table's newest
// generation rides the state snapshot, so a restarted engine strictly
// re-verifies no function whose body is unchanged.
func TestSnapshotCarriesVerifiedClean(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CacheDir: dir, SnapshotPath: filepath.Join(dir, "engine.snap"), Verify: VerifyBoundaries}
	e := persistEngine(t, 4, opts)
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	if _, misses := e.VerifyCacheStats(); misses == 0 {
		t.Fatal("cold build verified nothing: the test cannot tell a carried table from an idle one")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := persistEngine(t, 4, opts)
	if !e2.SnapshotRestored() {
		t.Fatal("snapshot not restored")
	}
	if _, _, err := e2.BuildAll(); err != nil {
		t.Fatal(err)
	}
	if hits, misses := e2.VerifyCacheStats(); misses != 0 || hits == 0 {
		t.Fatalf("restarted build: %d hits, %d misses, want every function carried clean", hits, misses)
	}
}

// TestSupervisorStateSurvivesRestart: an open breaker must stay open across
// an engine+supervisor restart via Drain's snapshot.
func TestSupervisorStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "engine.snap")
	mkEngine := func() (*Engine, *hookBox) {
		box := &hookBox{}
		m := irtext.MustParse("m", manyFuncSrc(4))
		e, err := New(m, Options{
			Variant: VariantMax, FaultHook: box.at,
			SnapshotPath: snap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, box
	}

	e, box := mkEngine()
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(3).
		Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindError, Rate: 1})
	box.fn = inj.At
	s := Supervise(e, SupervisorOptions{BreakerThreshold: 2, BreakerBackoff: 500 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		tk, err := s.Sync()
		if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		if res, _ := tk.Wait(ctx); res.Err == nil {
			t.Fatalf("sync %d committed under injected faults", i)
		}
	}
	waitBreaker(t, s, BreakerOpen)
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Restart: the breaker must come back open, still rejecting.
	e2, _ := mkEngine()
	defer e2.Close()
	if !e2.SnapshotRestored() {
		t.Fatal("snapshot not restored")
	}
	s2 := Supervise(e2, SupervisorOptions{BreakerThreshold: 2, BreakerBackoff: 500 * time.Millisecond})
	defer s2.Close()
	if got := s2.Breaker(); got != BreakerOpen {
		t.Fatalf("restored breaker = %v, want open", got)
	}
	if _, err := s2.Sync(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("restored open breaker admitted a request: %v", err)
	}
}

// TestReadOnlySecondEngine: two live engines on one cache directory — the
// second degrades to a read-only store but still warm-loads.
func TestReadOnlySecondEngine(t *testing.T) {
	dir := t.TempDir()
	w := persistEngine(t, 4, Options{CacheDir: dir})
	exeW, _, err := w.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	r := persistEngine(t, 4, Options{CacheDir: dir})
	ps, ok := r.PersistStats()
	if !ok || !ps.ReadOnly {
		t.Fatalf("second engine not read-only: %+v ok=%v", ps, ok)
	}
	exeR, st, err := r.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmHits == 0 {
		t.Fatal("read-only engine did not warm-load")
	}
	if exeR.Fingerprint() != exeW.Fingerprint() {
		t.Fatal("read-only warm image differs")
	}
}

// TestEngineCloseFlushesStoreOnce: Close racing an in-flight rebuild must
// flush the store exactly once; racing commits degrade to counted fallbacks.
func TestEngineCloseFlushesStoreOnce(t *testing.T) {
	dir := t.TempDir()
	e := persistEngine(t, 8, Options{CacheDir: dir, SnapshotPath: filepath.Join(dir, "s.snap"), Workers: 4})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			e.InvalidateCache()
			if _, _, err := e.BuildAll(); err != nil {
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatalf("close during rebuild: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	<-done
	// The directory must reopen cleanly whatever the race outcome.
	s, err := persist.Open(dir, persist.Options{BuildID: persistBuildID()})
	if err != nil {
		t.Fatalf("reopen after racing close: %v", err)
	}
	s.Close()
}

// TestPersistMetricsOnRegistry: the odin_persist_* families must be present
// and moving on the engine's registry.
func TestPersistMetricsOnRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	e := persistEngine(t, 4, Options{CacheDir: dir, Telemetry: reg})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(persist.MetricStores).Value(); got == 0 {
		t.Fatalf("%s = %d, want > 0", persist.MetricStores, got)
	}
	e.Close()
	reg2 := telemetry.NewRegistry()
	warm := persistEngine(t, 4, Options{CacheDir: dir, Telemetry: reg2})
	if _, _, err := warm.BuildAll(); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Counter(persist.MetricHits).Value(); got == 0 {
		t.Fatalf("%s = %d, want > 0", persist.MetricHits, got)
	}
}

// TestReplicaSnapshotIdentityMismatch pins the failover-path restore
// contract for hot-spare replicas (CacheReadOnly engines): a spare booted
// against a snapshot from a different module or variant must fall back to a
// cold boot — never adopt the mismatched state — and, being read-only, must
// neither remove the snapshot nor rewrite it on Close. The primary that
// owns the file keeps warm-starting from it afterwards.
func TestReplicaSnapshotIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "engine.snap")

	// Primary writes a valid snapshot for manyFuncSrc(4) at VariantMax.
	p := persistEngine(t, 4, Options{CacheDir: dir, SnapshotPath: snap})
	if _, _, err := p.BuildAll(); err != nil {
		t.Fatal(err)
	}
	p.addQuarantine(1, "cse")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	// A read-only spare for a DIFFERENT module boots against the same
	// paths (the stale-state scenario: layout reused after a redeploy).
	m := irtext.MustParse("other", manyFuncSrc(7))
	rep, err := New(m, Options{
		Variant: VariantMax, CacheDir: dir, SnapshotPath: snap, CacheReadOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotRestored() {
		t.Fatal("spare adopted a snapshot from a different module")
	}
	if len(rep.Quarantined(1)) != 0 {
		t.Fatal("stale quarantine leaked into the spare")
	}
	if _, _, err := rep.BuildAll(); err != nil {
		t.Fatalf("cold fallback build: %v", err)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// Read-only spares never touch the snapshot file: not removed on the
	// mismatch, not rewritten on Close.
	after, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("spare removed or lost the primary's snapshot: %v", err)
	}
	if string(after) != string(before) {
		t.Fatal("read-only spare rewrote the primary's snapshot")
	}

	// A matching read-only spare DOES restore the state, and still leaves
	// the file alone on Close.
	rep2, err := New(irtext.MustParse("m", manyFuncSrc(4)), Options{
		Variant: VariantMax, CacheDir: dir, SnapshotPath: snap, CacheReadOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.SnapshotRestored() {
		t.Fatal("matching spare did not restore the snapshot")
	}
	if q := rep2.Quarantined(1); !reflect.DeepEqual(q, []string{"cse"}) {
		t.Fatalf("restored quarantine = %v", q)
	}
	if st, ok := rep2.PersistStats(); !ok || !st.ReadOnly {
		t.Fatalf("spare store not read-only: %+v ok=%v", st, ok)
	}
	if err := rep2.Close(); err != nil {
		t.Fatal(err)
	}
	if final, err := os.ReadFile(snap); err != nil || string(final) != string(before) {
		t.Fatalf("matching spare disturbed the snapshot (err=%v)", err)
	}

	// And the primary restarts warm against the untouched snapshot.
	p2 := persistEngine(t, 4, Options{CacheDir: dir, SnapshotPath: snap})
	if !p2.SnapshotRestored() {
		t.Fatal("primary lost its snapshot after spare boots")
	}
}
