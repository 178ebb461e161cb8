package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

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
	if _, err := c.AddProbe("alpha", ProbeSpec{Func: "f3"}); err != nil {
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
	sh := srv.byName["alpha"]
	waitFor(t, 10*time.Second, "wedged probe on the new slot", func() bool {
		rec, ok := sh.lookupProbe(r.res.ID)
		slot := sh.current()
		return ok && slot != nil && rec.gen == slot.gen
	})
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
