package serve

import (
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTenantIsolation is the hostile-tenant containment test: one tenant
// storms poison probes at shard alpha while healthy tenants keep committing
// counter probes on shards alpha and beta. Isolation holds when (a) every
// healthy request eventually commits — zero dropped tickets, retries on
// shed/backpressure included — (b) healthy tail latency stays bounded, and
// (c) the hostile tenant is demonstrably contained by its failure breaker
// rather than by the shard breaker everyone shares.
//
// It runs under two admission ladders. "tuned" sets the tenant breaker's
// threshold below the shard breaker's, so the tenant breaker trips first.
// "default" keeps the default threshold, equal to the shard breaker's; its
// generous bucket and short breaker windows let the hostile tenant spray as
// hard as the breakers allow. The shard breaker judges the engine, not the
// probes (a failed generation's control rebuild passes when only poison
// broke it), so however the scheduler interleaves the two, poison-only
// generations never open it for the healthy tenants.
func TestTenantIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tenant storm")
	}
	cases := []struct {
		name      string
		admission AdmissionOptions
		// shedPause is how long the hostile tenant waits after a 429.
		shedPause time.Duration
	}{
		{"tuned", AdmissionOptions{
			// Rate limiting off: the test wants the failure breaker, not the
			// bucket, to do the containing.
			TenantRPS:      -1,
			FailThreshold:  2,
			FailBackoff:    100 * time.Millisecond,
			FailMaxBackoff: time.Second,
		}, 10 * time.Millisecond},
		{"default", AdmissionOptions{
			TenantRPS:      5000,
			TenantBurst:    1000,
			FailBackoff:    100 * time.Millisecond,
			FailMaxBackoff: 2 * time.Second,
		}, 5 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tenantIsolation(t, tc.admission, tc.shedPause) })
	}
}

func tenantIsolation(t *testing.T, admission AdmissionOptions, shedPause time.Duration) {
	srv, _, client := newTestServer(t, Options{
		Shards: []ShardSpec{
			{Name: "alpha", Module: testModule(t, 8)},
			{Name: "beta", Module: testModule(t, 8)},
		},
		Admission: admission,
	})

	const healthyOps = 24
	type tenantRun struct {
		tenant  string
		shard   string
		lats    []time.Duration
		dropped int
	}
	runs := []*tenantRun{
		{tenant: "good-a", shard: "alpha"},
		{tenant: "good-b", shard: "beta"},
	}

	var hostileWG, healthyWG sync.WaitGroup
	// Hostile tenant: fire poison probes at alpha as fast as the control
	// plane lets it, until the healthy tenants are done.
	done := make(chan struct{})
	hostileShed := 0
	hostileWG.Add(1)
	go func() {
		defer hostileWG.Done()
		c := client("evil")
		for {
			select {
			case <-done:
				return
			default:
			}
			_, err := c.AddProbe("alpha", ProbeSpec{Func: "f0", Kind: KindPoison})
			var ae *APIError
			if errors.As(err, &ae) && ae.Status == 429 {
				hostileShed++
				time.Sleep(shedPause)
			}
		}
	}()

	// Healthy tenants: add/remove/enable cycles; retry shed and
	// backpressure verdicts, count a request dropped only if it never
	// commits.
	for _, run := range runs {
		run := run
		healthyWG.Add(1)
		go func() {
			defer healthyWG.Done()
			c := client(run.tenant)
			for i := 0; i < healthyOps; i++ {
				fn := []string{"f1", "f2", "f3", "f4"}[i%4]
				start := time.Now()
				committed := false
				for attempt := 0; attempt < 50; attempt++ {
					res, err := c.AddProbe(run.shard, ProbeSpec{Func: fn})
					if err == nil {
						// Clean up so active probes don't accumulate
						// unboundedly; removal failures are tolerated.
						c.ProbeAction(run.shard, res.ID, "remove")
						committed = true
						break
					}
					var ae *APIError
					if errors.As(err, &ae) && ae.Temporary() {
						time.Sleep(20 * time.Millisecond)
						continue
					}
					t.Errorf("%s: non-retryable error: %v", run.tenant, err)
					break
				}
				if !committed {
					run.dropped++
					continue
				}
				run.lats = append(run.lats, time.Since(start))
			}
		}()
	}

	// Wait for the healthy tenants, then stop the hostile storm.
	healthyWG.Wait()
	close(done)
	hostileWG.Wait()

	for _, run := range runs {
		if run.dropped != 0 {
			t.Errorf("%s: %d healthy requests dropped", run.tenant, run.dropped)
		}
		sort.Slice(run.lats, func(i, j int) bool { return run.lats[i] < run.lats[j] })
		if n := len(run.lats); n > 0 {
			p99 := run.lats[n*99/100]
			if p99 > 30*time.Second {
				t.Errorf("%s: healthy p99 %v unbounded", run.tenant, p99)
			}
			t.Logf("%s on %s: p50=%v p99=%v", run.tenant, run.shard,
				run.lats[n/2], p99)
		}
	}

	// Containment evidence: the hostile tenant's failure breaker tripped
	// (serve-layer shedding), and the shards' own breakers stayed closed so
	// healthy traffic never saw fleet-wide fail-fast.
	snap := srv.Fleet()
	var evil *TenantStats
	for i := range snap.Tenants {
		if snap.Tenants[i].Tenant == "evil" {
			evil = &snap.Tenants[i]
		}
	}
	if evil == nil || evil.BreakerTrips == 0 {
		t.Errorf("hostile tenant breaker never tripped: %+v", snap.Tenants)
	}
	for _, sh := range snap.Shards {
		if sh.Supervisor.Breaker == "open" {
			t.Errorf("shard %s breaker open at end of storm", sh.Name)
		}
	}
	t.Logf("hostile: shed %d times, breaker trips %d", hostileShed, evil.BreakerTrips)
}

// TestPoisonOnlyGenerationsKeepShardBreakerClosed: more poison-only
// generations than the shard breaker's threshold quarantine their probes
// and leave the shard breaker closed, so a healthy tenant on the same shard
// never sees a 503. The tenant breaker is off: containment here is the
// shard breaker judging the engine, not the tenant ladder racing it.
func TestPoisonOnlyGenerationsKeepShardBreakerClosed(t *testing.T) {
	srv, _, client := newTestServer(t, Options{
		Shards:    []ShardSpec{{Name: "alpha", Module: testModule(t, 6)}},
		Admission: AdmissionOptions{TenantRPS: -1, FailThreshold: -1},
	})
	evil, good := client("evil"), client("good")
	const k = 3 // the supervisor's default breaker threshold
	for i := 0; i < k+2; i++ {
		_, err := evil.AddProbe("alpha", ProbeSpec{Func: "f0", Kind: KindPoison})
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != "quarantined" {
			t.Fatalf("poison add %d: %v, want quarantined", i, err)
		}
		res, err := good.AddProbe("alpha", ProbeSpec{Func: "f1"})
		if err != nil {
			t.Fatalf("healthy add after %d poison generations: %v", i+1, err)
		}
		if _, err := good.ProbeAction("alpha", res.ID, "remove"); err != nil {
			t.Fatalf("healthy remove after %d poison generations: %v", i+1, err)
		}
	}
	if b := srv.Fleet().Shards[0].Supervisor.Breaker; b != "closed" {
		t.Fatalf("shard breaker %s after %d poison-only generations", b, k+2)
	}
}

// TestEngineFailureIsRetryable: when the engine fails its control rebuild,
// a probe add answers 503 engine_failed with a Retry-After, and the failure
// is not charged to the tenant's breaker. Once the engine recovers, the
// retry commits.
func TestEngineFailureIsRetryable(t *testing.T) {
	var failing atomic.Bool
	srv, _, client := newTestServer(t, Options{
		Shards: []ShardSpec{{
			Name: "alpha", Module: testModule(t, 4),
			FaultHook: func(site string) error {
				if site == "supervisor:commit" && failing.Load() {
					return errors.New("injected engine failure")
				}
				return nil
			},
			Watchdog: WatchdogOptions{Disable: true},
		}},
		Admission: AdmissionOptions{TenantRPS: -1, FailThreshold: 1},
	})
	c := client("acme")
	failing.Store(true)
	_, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != "engine_failed" || ae.RetryAfter <= 0 {
		t.Fatalf("add on a failing engine: %v, want 503 engine_failed with Retry-After", err)
	}
	for _, ts := range srv.Fleet().Tenants {
		if ts.Tenant == "acme" && (ts.Failed != 0 || ts.BreakerTrips != 0) {
			t.Fatalf("engine failure charged to the tenant: %+v", ts)
		}
	}
	failing.Store(false)
	if _, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"}); err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}
}

// TestTenantBreakerSavesCompileWork pins what the tenant breaker buys beyond
// isolation: less compile work. One tenant sends 24 sequential poison adds.
// With the breaker on (default threshold, a one-minute window) only the
// first DefFailThreshold reach the engine, each one failed generation, and
// the rest are shed at admission; with it off every add costs a generation.
func TestTenantBreakerSavesCompileWork(t *testing.T) {
	const adds = 24
	for _, tc := range []struct {
		name      string
		admission AdmissionOptions
		failures  uint64
	}{
		{"on", AdmissionOptions{FailBackoff: time.Minute}, DefFailThreshold},
		{"off", AdmissionOptions{FailThreshold: -1}, adds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, client := newTestServer(t, Options{
				Shards:    []ShardSpec{{Name: "alpha", Module: testModule(t, 4), Watchdog: WatchdogOptions{Disable: true}}},
				Admission: tc.admission,
			})
			c := client("evil")
			for i := 0; i < adds; i++ {
				_, err := c.AddProbe("alpha", ProbeSpec{Func: "f0", Kind: KindPoison})
				var ae *APIError
				if !errors.As(err, &ae) || (ae.Code != "quarantined" && ae.Code != "shed") {
					t.Fatalf("poison add %d: %v, want quarantined or shed", i, err)
				}
			}
			snap := srv.Fleet()
			if got := snap.Shards[0].Supervisor.GenerationFailures; got != tc.failures {
				t.Fatalf("generation failures = %d, want %d", got, tc.failures)
			}
			if shed := snap.Tenants[0].Shed; shed != adds-tc.failures {
				t.Fatalf("shed = %d, want %d", shed, adds-tc.failures)
			}
		})
	}
}
