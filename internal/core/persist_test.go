package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"odin/internal/faultinject"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/persist"
	"odin/internal/progen"
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
	if !ok || ps.Stores == 0 {
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

// writeLayout1Snapshot writes st to path as earlier versions framed and
// encoded it, in state layout 1: after the fragment hashes comes a
// function-cache metadata section (funcHashes, per fragment), and after the
// verified functions the supervisor's breaker and probe quarantine, here an
// open breaker with an hour's backoff and engine probe 0 quarantined.
func writeLayout1Snapshot(t *testing.T, path, buildID string, st *persist.EngineState, funcHashes map[int]map[string]uint64) {
	t.Helper()
	p := []byte{1}
	u := func(v uint64) { p = binary.AppendUvarint(p, v) }
	i := func(v int64) { p = binary.AppendVarint(p, v) }
	str := func(s string) { u(uint64(len(s))); p = append(p, s...) }
	u(st.ModuleHash)
	str(st.Variant)
	i(int64(st.OptLevel))
	i(int64(st.VerifyTier))
	i(int64(st.Fragments))
	u(0) // fragment hashes
	u(uint64(len(funcHashes)))
	for id, hashes := range funcHashes {
		i(int64(id))
		i(int64(st.OptLevel))
		u(uint64(len(hashes)))
		for name, h := range hashes {
			str(name)
			u(h)
		}
	}
	u(0)             // pass quarantine
	u(0)             // deferred fragments
	p = append(p, 0) // no survey
	u(0)             // verified functions
	p = append(p, 1) // supervisor state
	i(int64(BreakerOpen))
	i(3)
	i(int64(time.Hour))
	u(1)
	i(0)
	str("boom")

	blob := append([]byte(nil), persist.MagicSnapshot[:]...)
	blob = binary.BigEndian.AppendUint32(blob, persist.Schema)
	blob = binary.BigEndian.AppendUint16(blob, uint16(len(buildID)))
	blob = append(blob, buildID...)
	blob = binary.BigEndian.AppendUint64(blob, uint64(len(p)))
	sum := sha256.Sum256(p)
	blob = append(blob, sum[:]...)
	if err := os.WriteFile(path, append(blob, p...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartIgnoresFuncHashes: a cache directory and snapshot as earlier
// versions wrote them — entries carrying per-function hashes, a layout-1
// snapshot carrying function metadata and an open breaker over a
// quarantined probe — boot cleanly. The snapshot is refused as skew and
// removed, every fragment still warm-starts from the store to the cold
// image, a supervisor over the engine starts closed and admits probe 0, and
// the snapshot the engine writes back restores.
func TestWarmStartIgnoresFuncHashes(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "engine.snap")
	opts := Options{ExtraBuiltins: []string{"__test_hit"}}
	cold := persistEngine(t, 6, opts)
	exeCold, _, err := cold.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	po := cold.opts.persistOptions()
	store, err := persist.Open(dir, po)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.buildState()
	st.ModuleHash, _ = moduleFingerprint(cold.Pristine)
	funcHashes := map[int]map[string]uint64{}
	for id, fs := range cold.frags {
		hashes := map[string]uint64{}
		for _, s := range cold.Plan.Fragments[id].Members {
			if f := cold.Pristine.LookupFunc(s); f != nil && !f.IsDecl() {
				hashes[s] = ir.FingerprintSym(f)
			}
		}
		level := cold.opts.OptLevel
		if err := store.Put(cold.persistKey(fs.hash), &persist.Entry{Object: fs.obj, Level: level, FuncHashes: hashes}); err != nil {
			t.Fatal(err)
		}
		funcHashes[id] = hashes
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	writeLayout1Snapshot(t, snap, po.BuildID, st, funcHashes)

	opts.CacheDir, opts.SnapshotPath = dir, snap
	warm := persistEngine(t, 6, opts)
	if warm.SnapshotRestored() {
		t.Fatal("layout-1 snapshot restored")
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatal("skewed snapshot not removed")
	}
	exeWarm, stWarm, err := warm.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if stWarm.WarmHits != len(warm.Plan.Fragments) {
		t.Fatalf("warm build: %d warm hits, want all %d fragments", stWarm.WarmHits, len(warm.Plan.Fragments))
	}
	if !reflect.DeepEqual(exeWarm.Funcs, exeCold.Funcs) || !reflect.DeepEqual(exeWarm.Data, exeCold.Data) {
		t.Fatal("warm image not byte-identical to cold image")
	}
	s := Supervise(warm, SupervisorOptions{})
	if b, q := s.Breaker(), s.QuarantinedProbes(); b != BreakerClosed || len(q) != 0 {
		t.Fatalf("supervisor over the warm engine: breaker %v, quarantined %v; want closed, none", b, q)
	}
	id, tk, err := s.AddProbe(&supProbe{fnName: "f0", id: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := tk.Wait(context.Background()); res.Err != nil || id != 0 {
		t.Fatalf("probe %d add: %v", id, res.Err)
	}
	s.Close()
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := persist.LoadState(snap, po)
	if err != nil || back == nil {
		t.Fatalf("reload snapshot: %v", err)
	}
	again := persistEngine(t, 6, opts)
	if !again.SnapshotRestored() {
		t.Fatal("snapshot written after the skewed one not restored")
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

// TestPersistFaultSweep is the persistence arm of the fault sweep: faults
// armed at every persist:* site must never surface as a build error or
// change the image, the verify-or-degrade contract under injected I/O
// failure. The "error" and "panic" cases build onto an empty cache with
// every persist call failing; the "seeded" cases first seed a cache and
// snapshot with a clean engine, then restart onto them twice per kind and
// rate, the warm start a persisting engine makes after every restart.
func TestPersistFaultSweep(t *testing.T) {
	p, _ := progen.ByName("json")
	m := p.Generate()
	engine := func(opts Options) *Engine {
		t.Helper()
		e, err := New(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	exeRef, _, err := engine(Options{}).BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	type sweepCase struct {
		name   string
		rule   faultinject.Rule
		seeded bool
	}
	cases := []sweepCase{
		{name: "error", rule: faultinject.Rule{Site: "persist:*", Kind: faultinject.KindError, Rate: 1}},
		{name: "panic", rule: faultinject.Rule{Site: "persist:*", Kind: faultinject.KindPanic, Rate: 1}},
	}
	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindStall} {
		for _, rate := range []float64{0.05, 0.2, 1} {
			cases = append(cases, sweepCase{
				name:   fmt.Sprintf("seeded/%s@%g", kind, rate),
				rule:   faultinject.Rule{Site: "persist:*", Kind: kind, Rate: rate},
				seeded: true,
			})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{
				CacheDir:     dir,
				SnapshotPath: filepath.Join(dir, "engine.snap"),
				Telemetry:    telemetry.NewRegistry(),
			}
			restarts := 1
			if tc.seeded {
				seed := engine(opts)
				if _, _, err := seed.BuildAll(); err != nil {
					t.Fatalf("seed build: %v", err)
				}
				if err := seed.Close(); err != nil {
					t.Fatalf("seed close: %v", err)
				}
				restarts = 2
			}
			inj := faultinject.New(7).SetStall(time.Millisecond).Arm(tc.rule)
			opts.FaultHook = inj.At
			for r := 0; r < restarts; r++ {
				e := engine(opts)
				exe, st, err := e.BuildAll()
				if err != nil {
					t.Fatalf("restart %d: build under persist faults: %v", r, err)
				}
				if !tc.seeded && st.WarmHits != 0 {
					t.Fatalf("warm hits under total persist failure: %d", st.WarmHits)
				}
				if exe.Fingerprint() != exeRef.Fingerprint() {
					t.Fatalf("restart %d: output changed under persist faults", r)
				}
				// Close may surface an injected snapshot-save fault: a typed
				// error on an explicit flush, not a crash. The next restart
				// proves the disk state stayed loadable or evictable.
				if err := e.Close(); err != nil {
					t.Logf("restart %d: close surfaced %v", r, err)
				}
			}
			if tc.rule.Rate == 1 && inj.TotalInjected() == 0 {
				t.Fatal("no faults injected")
			}
			t.Logf("%d faults injected", inj.TotalInjected())
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
	if q := e2.Snapshot().Quarantined[1]; !reflect.DeepEqual(q, []string{"cse", "licm"}) {
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
	if len(e3.Snapshot().Quarantined[1]) != 0 {
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

// TestReadOnlySecondEngine: two live engines on one cache directory — the
// second degrades to a read-only store but still warm-loads.
func TestReadOnlySecondEngine(t *testing.T) {
	dir := t.TempDir()
	w := persistEngine(t, 4, Options{CacheDir: dir})
	exeW, _, err := w.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	// Publication is write-behind: PersistStats waits until the writer's
	// objects are on disk for the second engine to find.
	w.PersistStats()
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

	// A generation that commits after Close (a supervisor abandoned
	// mid-generation does exactly this) drops its publications: each one a
	// counted fallback, never a blocked commit or a panic.
	before, _ := e.PersistStats()
	e.InvalidateCache()
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatalf("rebuild after close: %v", err)
	}
	after, _ := e.PersistStats()
	var want uint64
	for _, fc := range st.Fragments {
		if fc.FuncsCompiled > 0 && !fc.Degraded {
			want++
		}
	}
	if got := after.Fallbacks - before.Fallbacks; want == 0 || got != want {
		t.Fatalf("commit after close counted %d fallbacks, want %d (one per fresh object)", got, want)
	}

	// The directory must reopen cleanly whatever the race outcome.
	s, err := persist.Open(dir, persist.Options{BuildID: PersistBuildID()})
	if err != nil {
		t.Fatalf("reopen after racing close: %v", err)
	}
	s.Close()
}

// TestWriteBehindOverflow: while the store's writer is stuck in a put, K
// generations commit at once; the queue holds publishDepth of them and each
// write beyond that is a counted fallback. After the release, Close flushes
// the queue, and a restarted engine serves every queued object as a warm
// hit while the dropped ones compile cold — every image equal to its cold
// build either way.
func TestWriteBehindOverflow(t *testing.T) {
	dir := t.TempDir()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func(site string) error {
		if site == persist.SiteStore {
			once.Do(func() { close(entered); <-release })
		}
		return nil
	}
	opts := Options{Variant: VariantMax, Workers: 1, ExtraBuiltins: []string{"__test_hit"}}
	src := manyFuncSrc(4)
	mk := func(o Options) *Engine {
		e, err := New(irtext.MustParse("m", src), o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	wo := opts
	wo.CacheDir, wo.FaultHook = dir, hook
	e := mk(wo)
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // runs before e.Close on an early failure
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	<-entered // the writer holds the cold build's batch, stuck in its first put

	// Generation i runs probe ID i on f0: one fresh object each.
	const extra = 3
	pid := -1
	setProbe := func(e *Engine, id int64) *RebuildStats {
		t.Helper()
		if pid >= 0 {
			if err := e.Manager.Remove(pid); err != nil {
				t.Fatal(err)
			}
		}
		pid = e.Manager.Add(&supProbe{fnName: "f0", id: id})
		_, st, err := e.BuildAll()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for id := int64(1); id <= publishDepth+extra; id++ {
		if st := setProbe(e, id); st.FuncsCompiled == 0 {
			t.Fatalf("generation %d compiled nothing: %+v", id, st)
		}
	}
	unblock()
	ps, _ := e.PersistStats()
	if ps.Fallbacks != extra {
		t.Fatalf("fallbacks = %d, want %d (the generations past the queue depth)", ps.Fallbacks, extra)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	ro := opts
	ro.CacheDir = dir
	warm := mk(ro)
	if _, st, err := warm.BuildAll(); err != nil || st.WarmHits != len(warm.Plan.Fragments) {
		t.Fatalf("restart: %d of %d fragments warm, err %v", st.WarmHits, len(warm.Plan.Fragments), err)
	}
	pid = -1
	for id := int64(1); id <= publishDepth+extra; id++ {
		st := setProbe(warm, id)
		if queued := id <= publishDepth; st.WarmHits != btoi(queued) {
			t.Fatalf("probe ID %d (queued %v): %d warm hits", id, queued, st.WarmHits)
		}
		cold := mk(opts)
		cold.Manager.Add(&supProbe{fnName: "f0", id: id})
		want, _, err := cold.BuildAll()
		if err != nil {
			t.Fatal(err)
		}
		if warm.Executable().Fingerprint() != want.Fingerprint() {
			t.Fatalf("probe ID %d: image differs from its cold build", id)
		}
	}
}

// btoi is 1 for true, 0 for false.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
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
	e.PersistStats() // let the write-behind queue drain
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
