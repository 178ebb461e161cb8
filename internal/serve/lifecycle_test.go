package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/persist"
)

// fastWatchdog is a watchdog tuned for tests: tight sampling and deadlines
// so a wedge is detected in tens of milliseconds, not tens of seconds.
func fastWatchdog() WatchdogOptions {
	return WatchdogOptions{
		Interval:          20 * time.Millisecond,
		StuckQueueAge:     300 * time.Millisecond,
		GenDeadline:       500 * time.Millisecond,
		BreakerOpenGrace:  50 * time.Millisecond,
		BreakerWedgeAfter: 400 * time.Millisecond,
		RestartAttempts:   1,
		RestartBackoff:    20 * time.Millisecond,
		BootTimeout:       time.Minute,
	}
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestJournalReplayAcrossRestart pins the durability contract: probes added
// through the API survive a full server bounce (new process, same data
// dir), with their serve-level IDs and active/inactive state intact.
func TestJournalReplayAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	mod := testModule(t, 5)
	boot := func() (*Server, func()) {
		clone, _ := ir.CloneModule(mod)
		srv, err := New(Options{
			DataDir: dataDir,
			Shards:  []ShardSpec{{Name: "alpha", Module: clone, Watchdog: WatchdogOptions{Disable: true}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Close(ctx)
		}
	}

	srv, closeSrv := boot()
	hs, client := startTest(t, srv)
	c := client("acme")
	res1, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatalf("AddProbe: %v", err)
	}
	res2, err := c.AddProbe("alpha", ProbeSpec{Func: "f1"})
	if err != nil {
		t.Fatalf("AddProbe: %v", err)
	}
	if _, err := c.ProbeAction("alpha", res2.ID, "remove"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	hs.Close()
	closeSrv()

	srv2, closeSrv2 := boot()
	defer closeSrv2()
	hs2, client2 := startTest(t, srv2)
	defer hs2.Close()
	c2 := client2("acme")

	// The removed probe can be re-enabled under its old ID; the active one
	// is live (remove works), both owned by the same tenant.
	if _, err := c2.ProbeAction("alpha", res2.ID, "enable"); err != nil {
		t.Fatalf("enable replayed probe %d: %v", res2.ID, err)
	}
	if _, err := c2.ProbeAction("alpha", res1.ID, "remove"); err != nil {
		t.Fatalf("remove replayed probe %d: %v", res1.ID, err)
	}
	// A fresh add must not collide with replayed IDs.
	res3, err := c2.AddProbe("alpha", ProbeSpec{Func: "f2"})
	if err != nil {
		t.Fatalf("AddProbe after replay: %v", err)
	}
	if res3.ID == res1.ID || res3.ID == res2.ID {
		t.Fatalf("replayed ID collision: new %d vs old %d/%d", res3.ID, res1.ID, res2.ID)
	}
}

// TestChangeNotJournaled: a change commits no lasting state, so add →
// change → remove journals two records and a reopen replays the same
// states. A journal written before changes were dropped still decodes, and
// its change records are ignored.
func TestChangeNotJournaled(t *testing.T) {
	dataDir := t.TempDir()
	mod := testModule(t, 4)
	boot := func() *Server {
		clone, _ := ir.CloneModule(mod)
		srv, err := New(Options{
			DataDir: dataDir,
			Shards:  []ShardSpec{{Name: "alpha", Module: clone, Watchdog: WatchdogOptions{Disable: true}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	srv := boot()
	hs, client := startTest(t, srv)
	c := client("acme")
	res, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatalf("AddProbe: %v", err)
	}
	for _, action := range []string{"change", "remove"} {
		if _, err := c.ProbeAction("alpha", res.ID, action); err != nil {
			t.Fatalf("%s: %v", action, err)
		}
	}
	if n := srv.Fleet().Shards[0].JournalRecords; n != 2 {
		t.Fatalf("journal holds %d records after add, change, remove; want 2", n)
	}
	want := srv.byName["alpha"].ledgerStates()
	hs.Close()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	srv2 := boot()
	defer srv2.Close(ctx)
	if got := srv2.byName["alpha"].ledgerStates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen replayed %+v, want %+v", got, want)
	}

	add := journalOp{Op: jopAdd, ID: 1, Tenant: "acme", Spec: &ProbeSpec{Func: "f0", Kind: KindCounter}}
	change := journalOp{Op: jopChange, ID: 1, Tenant: "acme"}
	remove := journalOp{Op: jopRemove, ID: 1, Tenant: "acme"}
	var recs [][]byte
	for _, op := range []journalOp{add, change, remove} {
		b, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, b)
	}
	old := decodeJournalOps(recs)
	if len(old) != 3 {
		t.Fatalf("old journal decoded %d of 3 records", len(old))
	}
	if got, want := reduceJournal(old), reduceJournal([]journalOp{add, remove}); !reflect.DeepEqual(got, want) {
		t.Fatalf("old journal with a change reduces to %+v, want %+v", got, want)
	}
}

// startTest is newTestServer's tail for a server built by the caller.
func startTest(t *testing.T, srv *Server) (*httptest.Server, func(string) *Client) {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	return hs, func(tenant string) *Client { return &Client{Base: hs.URL, Tenant: tenant} }
}

// TestWatchdogRestartFromSnapshot wedges a shard with a fault hook that
// blocks the commit site until the test releases it, and asserts the
// watchdog restarts the engine in place without waiting on the wedged
// generation: the restart is recorded and a new probe commits on the new
// slot while the old generation is still blocked. After the release the
// wedged request converges onto the new slot, probes registered before the
// wedge still answer under their serve-level IDs, and the recovered shard
// writes the snapshot a later boot warm-starts from.
func TestWatchdogRestartFromSnapshot(t *testing.T) {
	var armed atomic.Bool
	release := make(chan struct{})
	hook := func(site string) error {
		if site == "supervisor:commit" && armed.CompareAndSwap(true, false) {
			<-release
		}
		return nil
	}
	dataDir := t.TempDir()
	mod := testModule(t, 5)
	clone, _ := ir.CloneModule(mod)
	srv, err := New(Options{
		DataDir: dataDir,
		Shards: []ShardSpec{{
			Name:      "alpha",
			Module:    clone,
			FaultHook: hook,
			Watchdog: WatchdogOptions{
				Interval:        20 * time.Millisecond,
				GenDeadline:     200 * time.Millisecond,
				StuckQueueAge:   300 * time.Millisecond,
				RestartAttempts: 2,
				RestartBackoff:  20 * time.Millisecond,
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	closeSrv := func(srv *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	}
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	hs, client := startTest(t, srv)
	c := client("acme")

	res0, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatalf("AddProbe f0: %v", err)
	}
	res2, err := c.AddProbe("alpha", ProbeSpec{Func: "f2"})
	if err != nil {
		t.Fatalf("AddProbe f2: %v", err)
	}

	// Wedge: the next commit blocks until released, far past GenDeadline.
	// The request rides through the failover, so fire it from a goroutine.
	armed.Store(true)
	type addResult struct {
		res ProbeResult
		err error
	}
	wedged := make(chan addResult, 1)
	go func() {
		res, err := c.AddProbe("alpha", ProbeSpec{Func: "f1"})
		wedged <- addResult{res, err}
	}()

	waitFor(t, 15*time.Second, "watchdog restart", func() bool {
		return len(srv.ShardFailovers("alpha")) > 0
	})
	// The new slot serves while the old generation is still blocked.
	res3, err := c.AddProbe("alpha", ProbeSpec{Func: "f3"})
	if err != nil {
		t.Fatalf("AddProbe on the new slot during the wedge: %v", err)
	}
	select {
	case r := <-wedged:
		t.Fatalf("wedged request finished before its generation was released: %+v", r)
	default:
	}

	close(release)
	released = true
	r := <-wedged
	if r.err != nil {
		t.Fatalf("wedged AddProbe f1: %v", r.err)
	}
	// The wedged add answered from a swapped-out slot, so it re-admitted:
	// it is already active on the serving engine when its reply arrives.
	sh := srv.byName["alpha"]
	requireActive(t, sh, res0.ID, res2.ID, res3.ID, r.res.ID)
	if _, err := c.ProbeAction("alpha", r.res.ID, "remove"); err != nil {
		t.Fatalf("remove wedged probe %d after restart: %v", r.res.ID, err)
	}
	waitFor(t, 10*time.Second, "shard healthy again", func() bool {
		return srv.ShardState("alpha") == ShardHealthy
	})
	// The restarted engine still knows the pre-wedge probes, and warm-started
	// from the persist tier.
	if _, err := c.ProbeAction("alpha", res0.ID, "remove"); err != nil {
		t.Fatalf("remove probe %d after restart: %v", res0.ID, err)
	}
	snap := srv.Fleet()
	if snap.Shards[0].Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", snap.Shards[0].Restarts)
	}
	if snap.Shards[0].WarmHits == 0 {
		t.Fatalf("restarted shard did not warm-start (warm hits = 0)")
	}
	hs.Close()
	closeSrv(srv)

	// Reopen on the same data dir: the recovered shard wrote the snapshot
	// and the cache this boot warm-starts from, and both pre-wedge probes
	// answer under their IDs.
	clone, _ = ir.CloneModule(mod)
	srv2, err := New(Options{
		DataDir: dataDir,
		Shards:  []ShardSpec{{Name: "alpha", Module: clone, Watchdog: WatchdogOptions{Disable: true}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrv(srv2)
	hs2, client2 := startTest(t, srv2)
	defer hs2.Close()
	c2 := client2("acme")
	if !srv2.byName["alpha"].current().eng.SnapshotRestored() {
		t.Fatal("reopened shard did not restore the recovered shard's snapshot")
	}
	if hits := srv2.ShardWarmHits("alpha"); hits == 0 {
		t.Fatal("reopened shard did not warm-start (warm hits = 0)")
	}
	if _, err := c2.ProbeAction("alpha", res0.ID, "enable"); err != nil {
		t.Fatalf("enable pre-wedge probe %d after reopen: %v", res0.ID, err)
	}
	if _, err := c2.ProbeAction("alpha", res2.ID, "remove"); err != nil {
		t.Fatalf("remove pre-wedge probe %d after reopen: %v", res2.ID, err)
	}
}

// TestLateCommitReadmits holds acme's add of f2 in slot A's generation
// across a restart in place, then releases it. Slot B has meanwhile given
// its engine probe ID 2 to evil's f3, the ID acme's add got on A. The late
// result comes from a slot that no longer serves, so the add re-admits
// against B: "breaker-open" has opened B's breaker first, so the re-admitted
// add fails and leaves no record; "healthy" keeps B serving, so the add
// answers 200 and is active on B when the reply arrives. Either way every
// ledger record names an engine probe on its own function, and evil's probe
// stays active.
func TestLateCommitReadmits(t *testing.T) {
	for _, tc := range []struct {
		name        string
		openBreaker bool
	}{{"breaker-open", true}, {"healthy", false}} {
		t.Run(tc.name, func(t *testing.T) { lateCommitReadmits(t, tc.openBreaker) })
	}
}

func lateCommitReadmits(t *testing.T, openBreaker bool) {
	var hold, failing atomic.Bool
	held := make(chan struct{})
	release := make(chan struct{})
	srv, _, client := newTestServer(t, Options{
		DataDir: t.TempDir(),
		Shards: []ShardSpec{{
			Name:     "alpha",
			Module:   testModule(t, 5),
			Watchdog: WatchdogOptions{Disable: true},
			FaultHook: func(site string) error {
				if site != "supervisor:commit" {
					return nil
				}
				if hold.CompareAndSwap(true, false) {
					close(held)
					<-release
					return nil
				}
				if failing.Load() {
					return errors.New("injected engine failure")
				}
				return nil
			},
		}},
	})
	var releaseOnce sync.Once
	releaseA := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseA)
	acme, evil := client("acme"), client("evil")
	var ids []int64
	for _, fn := range []string{"f0", "f1"} {
		res, err := acme.AddProbe("alpha", ProbeSpec{Func: fn})
		if err != nil {
			t.Fatalf("AddProbe %s: %v", fn, err)
		}
		ids = append(ids, res.ID)
	}

	hold.Store(true)
	type addResult struct {
		res ProbeResult
		err error
	}
	late := make(chan addResult, 1)
	go func() {
		res, err := acme.AddProbe("alpha", ProbeSpec{Func: "f2"})
		late <- addResult{res, err}
	}()
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatal("acme's add of f2 never reached slot A's commit")
	}
	sh := srv.byName["alpha"]
	if err := sh.lc.restartInPlace("test"); err != nil {
		t.Fatalf("restart in place: %v", err)
	}
	e3, err := evil.AddProbe("alpha", ProbeSpec{Func: "f3"})
	if err != nil {
		t.Fatalf("evil AddProbe f3 on slot B: %v", err)
	}
	ids = append(ids, e3.ID)
	if openBreaker {
		failing.Store(true)
		for i := 0; i < 3; i++ {
			var ae *APIError
			if _, err := acme.Sync("alpha"); !errors.As(err, &ae) || ae.Code != "engine_failed" {
				t.Fatalf("sync %d under engine failure: %v", i, err)
			}
		}
		if b := sh.current().sup.Breaker(); b != core.BreakerOpen {
			t.Fatalf("slot B breaker %v after three failed syncs, want open", b)
		}
	}

	releaseA()
	r := <-late
	if !openBreaker {
		if r.err != nil {
			t.Fatalf("late add of f2 on a healthy slot B: %v", r.err)
		}
		ids = append(ids, r.res.ID)
	}
	requireActive(t, sh, ids...)
	if openBreaker {
		var ae *APIError
		if !errors.As(r.err, &ae) || ae.Code != "breaker_open" {
			t.Fatalf("late add of f2 with slot B's breaker open: %v (%+v), want breaker_open", r.err, r.res)
		}
	}
}

// TestDeadShardFailsFast exhausts the ladder (no restart budget left
// because boot itself is broken) and asserts requests fail fast with
// the dead verdict + Retry-After instead of hanging.
func TestDeadShardFailsFast(t *testing.T) {
	mod := testModule(t, 4)
	srv, err := New(Options{
		Shards: []ShardSpec{{Name: "alpha", Module: mod, Watchdog: WatchdogOptions{Disable: true}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	hs, client := startTest(t, srv)
	defer hs.Close()
	c := client("acme")

	// Drive the terminal rung directly (the watchdog paths are exercised
	// above); markDead is what the ladder calls after the restarts fail.
	sh := srv.byName["alpha"]
	sh.markDead(context.DeadlineExceeded)

	_, err = c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("expected APIError, got %v", err)
	}
	if ae.Status != 503 || ae.Code != "dead" {
		t.Fatalf("dead shard verdict = %d %s, want 503 dead", ae.Status, ae.Code)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("dead shard response missing Retry-After")
	}
}

// TestParkedRequestsReadmit holds the swap gate open manually and asserts
// requests park (no failure) until endSwap, then complete against the slot.
func TestParkedRequestsReadmit(t *testing.T) {
	srv, err := New(Options{
		Shards: []ShardSpec{{Name: "alpha", Module: testModule(t, 4), Watchdog: WatchdogOptions{Disable: true}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	hs, client := startTest(t, srv)
	defer hs.Close()
	c := client("acme")

	sh := srv.byName["alpha"]
	sh.beginSwap()
	done := make(chan error, 1)
	go func() {
		_, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("request completed through a closed swap gate: err=%v", err)
	case <-time.After(200 * time.Millisecond):
	}
	sh.endSwap(nil, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked request failed after gate reopened: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked request never re-admitted")
	}
	if got := sh.metrics.parked.Value(); got == 0 {
		t.Fatalf("parked counter = 0, want > 0")
	}
}

// TestJournalCloseErrorReported: a failed flush of the probe journal at
// shutdown surfaces in Server.Close instead of vanishing, and the ops
// written before it still replay on the next boot.
func TestJournalCloseErrorReported(t *testing.T) {
	dataDir := t.TempDir()
	boom := errors.New("injected journal flush failure")
	var failClose atomic.Bool
	boot := func() *Server {
		srv, err := New(Options{
			DataDir: dataDir,
			Shards: []ShardSpec{{
				Name: "alpha", Module: testModule(t, 4),
				Watchdog: WatchdogOptions{Disable: true},
				FaultHook: func(site string) error {
					if site == persist.SiteLogClose && failClose.Load() {
						return boom
					}
					return nil
				},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	closeSrv := func(srv *Server) error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.Close(ctx)
	}

	srv := boot()
	hs, client := startTest(t, srv)
	res, err := client("acme").AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatalf("AddProbe: %v", err)
	}
	hs.Close()
	failClose.Store(true)
	if err := closeSrv(srv); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the journal's flush failure", err)
	}

	failClose.Store(false)
	srv2 := boot()
	defer closeSrv(srv2)
	hs2, client2 := startTest(t, srv2)
	defer hs2.Close()
	if _, err := client2("acme").ProbeAction("alpha", res.ID, "remove"); err != nil {
		t.Fatalf("probe %d lost with the failed flush: %v", res.ID, err)
	}
}

// requireActive asserts that every ledger record names an engine probe on
// its own function in the serving slot's engine, that each committed
// serve-level probe is in the ledger as active and is active on that engine,
// and that the engine runs no other probe.
func requireActive(t *testing.T, sh *shard, ids ...int64) {
	t.Helper()
	slot := sh.current()
	if slot == nil {
		t.Fatal("no serving slot")
	}
	sh.mu.Lock()
	ledger := make(map[int64]probeRec, len(sh.probes))
	for id, rec := range sh.probes {
		ledger[id] = *rec
	}
	sh.mu.Unlock()
	for id, rec := range ledger {
		p, ok := slot.eng.Manager.Get(rec.EngID)
		if !ok || p.PatchTarget() != rec.Spec.Func {
			t.Fatalf("ledger probe %d (%s, %s) names engine probe %d = %+v", id, rec.Tenant, rec.Spec.Func, rec.EngID, p)
		}
	}
	for _, id := range ids {
		rec, ok := ledger[id]
		if !ok || !rec.Active || !slot.eng.Manager.IsActive(rec.EngID) {
			t.Fatalf("committed probe %d not active on the serving slot (record %+v, found %v)", id, rec, ok)
		}
	}
	if n := slot.eng.Manager.NumActive(); n != len(ids) {
		t.Fatalf("engine runs %d active probes, want %d", n, len(ids))
	}
}

// addPoison adds a poison probe and asserts it is quarantined.
func addPoison(t *testing.T, c *Client, shard, fn string) {
	t.Helper()
	_, err := c.AddProbe(shard, ProbeSpec{Func: fn, Kind: KindPoison})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "quarantined" {
		t.Fatalf("poison add on %s: %v, want quarantined", fn, err)
	}
}

// TestRestartAfterQuarantinedAdd: a quarantined add, then a committed one,
// then a clean shutdown; a new server on the same data dir must boot, with
// the committed probe active. The quarantine is the old engine's: engine
// probe IDs start again from 0, so the replayed probe must not inherit it.
func TestRestartAfterQuarantinedAdd(t *testing.T) {
	dataDir := t.TempDir()
	mod := testModule(t, 4)
	boot := func() *Server {
		clone, _ := ir.CloneModule(mod)
		srv, err := New(Options{
			DataDir:   dataDir,
			Shards:    []ShardSpec{{Name: "alpha", Module: clone, Watchdog: WatchdogOptions{Disable: true}}},
			Admission: AdmissionOptions{FailThreshold: -1},
		})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		return srv
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	srv := boot()
	hs, client := startTest(t, srv)
	c := client("acme")
	addPoison(t, c, "alpha", "f0")
	res, err := c.AddProbe("alpha", ProbeSpec{Func: "f1"})
	if err != nil {
		t.Fatalf("healthy add: %v", err)
	}
	hs.Close()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}

	srv2 := boot()
	defer srv2.Close(ctx)
	requireActive(t, srv2.byName["alpha"], res.ID)
}

// TestRestartInPlaceWithOpenBreaker: a shard whose breaker opened on engine
// failures restarts in place once the fault clears — the recovery the
// watchdog runs for a breaker pinned open — and keeps its committed probe.
func TestRestartInPlaceWithOpenBreaker(t *testing.T) {
	var failing atomic.Bool
	srv, _, client := newTestServer(t, Options{
		DataDir: t.TempDir(),
		Shards: []ShardSpec{{
			Name:   "alpha",
			Module: testModule(t, 4),
			FaultHook: func(site string) error {
				if site == "supervisor:commit" && failing.Load() {
					return errors.New("injected engine failure")
				}
				return nil
			},
			Watchdog: WatchdogOptions{Disable: true},
		}},
	})
	c := client("acme")
	res, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	sh := srv.byName["alpha"]
	failing.Store(true)
	for sh.current().sup.Breaker() != core.BreakerOpen {
		var ae *APIError
		if _, err := c.Sync("alpha"); !errors.As(err, &ae) || (ae.Code != "engine_failed" && ae.Code != "breaker_open") {
			t.Fatalf("sync under engine failure: %v", err)
		}
	}
	failing.Store(false)
	if err := sh.lc.restartInPlace("breaker open"); err != nil {
		t.Fatalf("restart in place: %v", err)
	}
	if b := sh.current().sup.Breaker(); b != core.BreakerClosed {
		t.Fatalf("restarted breaker %v, want closed", b)
	}
	requireActive(t, sh, res.ID)
}

// TestRestartInPlaceSkipsFailedAdds: quarantined adds leave nothing in the
// ledger, so a restart in place replays only the committed probe — no
// poison generation, no bisection, no quarantine on the new slot.
func TestRestartInPlaceSkipsFailedAdds(t *testing.T) {
	srv, _, client := newTestServer(t, Options{
		DataDir:   t.TempDir(),
		Shards:    []ShardSpec{{Name: "alpha", Module: testModule(t, 4), Watchdog: WatchdogOptions{Disable: true}}},
		Admission: AdmissionOptions{FailThreshold: -1},
	})
	c := client("acme")
	for _, fn := range []string{"f0", "f1", "f2"} {
		addPoison(t, c, "alpha", fn)
	}
	res, err := c.AddProbe("alpha", ProbeSpec{Func: "f3"})
	if err != nil {
		t.Fatalf("healthy add: %v", err)
	}
	sh := srv.byName["alpha"]
	if err := sh.lc.restartInPlace("test"); err != nil {
		t.Fatalf("restart in place: %v", err)
	}
	if st := sh.current().sup.Stats(); len(st.QuarantinedProbes) != 0 || st.BisectRebuilds != 0 {
		t.Fatalf("new slot: quarantined %v, %d bisect rebuilds; want none", st.QuarantinedProbes, st.BisectRebuilds)
	}
	requireActive(t, sh, res.ID)
}
