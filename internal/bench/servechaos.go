package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odin/internal/faultinject"
	"odin/internal/progen"
	"odin/internal/serve"
)

// The serve-chaos experiment wedges a shard mid-storm and measures what the
// self-healing lifecycle does about it: a fresh one-shard control plane
// under healthy tenant load, a one-shot 2s stall injected at
// supervisor:commit that holds the generation past its deadline, and a
// watchdog that must restart the engine in place, warm from the persist
// snapshot.
//
// The gates are absolute, not drift bands: zero healthy commits dropped
// (requests caught in the failover window park on the shard gate and
// re-admit — delayed, never lost), and the failover unavailability window
// stays under ChaosFailoverBudgetMS.

// ChaosFailoverBudgetMS bounds the failover unavailability window (begin
// swap to end swap). A restart never waits on the wedged loop, so the
// window is a warm engine boot plus the ledger replay; the budget is
// absolute, and far below the injected stall, so a restart that waits the
// wedge out fails it whatever the machine.
const ChaosFailoverBudgetMS = 500

// ChaosStallDefault is the injected commit stall: long enough to blow any
// sane generation deadline, short enough to keep the experiment quick.
const ChaosStallDefault = 2 * time.Second

// ServeChaosArm is one arm's outcome.
type ServeChaosArm struct {
	// Name is the recovery rung the arm exercises ("restart").
	Name string `json:"name"`
	// Requests/Committed/Dropped/Retries aggregate the healthy tenants'
	// probe commits across the storm, fault window included.
	Requests  int `json:"requests"`
	Committed int `json:"committed"`
	Dropped   int `json:"dropped"`
	Retries   int `json:"retries"`
	// P50/P99 are healthy commit latencies across the whole arm — the tail
	// includes requests that rode through the failover.
	P50 time.Duration `json:"p50"`
	P99 time.Duration `json:"p99"`
	// FailoverMS is the restart's unavailability window.
	FailoverMS float64 `json:"failover_ms"`
	// Restarts is the shard's lifetime restart counter after the arm.
	Restarts uint64 `json:"restarts"`
}

// ServeChaosSummary is the whole experiment.
type ServeChaosSummary struct {
	Program           string          `json:"program"`
	HealthyTenants    int             `json:"healthy_tenants"`
	RequestsPerTenant int             `json:"requests_per_tenant"`
	Arms              []ServeChaosArm `json:"arms"`
	// DroppedHealthy is the gate headline: healthy commits dropped (must be
	// 0 — failover parks requests, it doesn't shed them).
	DroppedHealthy int `json:"dropped_healthy"`
	// FailoverP99MS is the worst failover window, gated absolutely against
	// ChaosFailoverBudgetMS.
	FailoverP99MS float64       `json:"failover_p99_ms"`
	Wall          time.Duration `json:"wall"`
}

// RunServeChaos runs the restart arm against the named suite program.
func RunServeChaos(program string, healthy, perTenant int) (*ServeChaosSummary, error) {
	if _, ok := progen.ByName(program); !ok {
		return nil, fmt.Errorf("bench: unknown suite program %q", program)
	}
	if healthy < 1 {
		healthy = 3
	}
	if perTenant < 1 {
		perTenant = 30
	}
	sum := &ServeChaosSummary{Program: program, HealthyTenants: healthy, RequestsPerTenant: perTenant}
	t0 := time.Now()

	restart, err := runChaosArm(program, healthy, perTenant)
	if err != nil {
		return nil, fmt.Errorf("bench: restart arm: %w", err)
	}
	sum.Arms = append(sum.Arms, *restart)

	sum.Wall = time.Since(t0)
	for _, a := range sum.Arms {
		sum.DroppedHealthy += a.Dropped
		sum.FailoverP99MS = maxf(sum.FailoverP99MS, a.FailoverMS)
	}
	return sum, nil
}

// runChaosArm boots a one-shard control plane, storms it with healthy
// tenants, wedges the shard mid-storm with a one-shot injected stall, and
// waits out the recovery. The watchdog is tight — wedges are detected in
// tens of milliseconds — so the experiment measures recovery, not
// detection.
func runChaosArm(program string, healthy, perTenant int) (*ServeChaosArm, error) {
	arm := &ServeChaosArm{Name: "restart"}
	inj := faultinject.New(97)
	inj.SetStall(ChaosStallDefault)
	srv, err := serve.New(serve.Options{
		Shards: []serve.ShardSpec{{
			Name:      "s0",
			Program:   program,
			FaultHook: inj.At,
			Watchdog: serve.WatchdogOptions{
				Interval:        20 * time.Millisecond,
				GenDeadline:     200 * time.Millisecond,
				StuckQueueAge:   400 * time.Millisecond,
				RestartAttempts: 1,
				RestartBackoff:  50 * time.Millisecond,
			},
		}},
		Admission: serve.AdmissionOptions{
			TenantRPS:      5000,
			TenantBurst:    1000,
			FailBackoff:    100 * time.Millisecond,
			FailMaxBackoff: 2 * time.Second,
		},
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Close(ctx)
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Close(ctx)
	}()
	base := "http://" + addr

	c0 := &serve.Client{Base: base}
	funcs, err := c0.Functions("s0")
	if err != nil {
		return nil, err
	}
	if len(funcs) == 0 {
		return nil, fmt.Errorf("shard s0 has no instrumentable functions")
	}

	type tenantRow struct {
		requests, committed, dropped, retries int
		lats                                  []time.Duration
		err                                   error
	}
	rows := make([]tenantRow, healthy)
	// Tenants commit continuously: through the pre-fault warm-up, straight
	// through the wedge and the failover window, and for perTenant more
	// commits after the failover lands (recovered is flipped by the main
	// goroutine) — proving the replacement slot actually serves. Counting
	// only post-failover commits toward the quota keeps the fault window
	// guaranteed to see live traffic regardless of how fast the machine is.
	var totalCommits int64
	var recovered int32
	var wg sync.WaitGroup
	for t := 0; t < healthy; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &serve.Client{Base: base, Tenant: fmt.Sprintf("tenant-%d", t)}
			r := &rows[t]
			after := 0
			for i := 0; after < perTenant; i++ {
				fn := funcs[(t+i)%len(funcs)]
				r.requests++
				start := time.Now()
				id, retries, err := serveCommit(c, "s0", fn)
				r.retries += retries
				if err != nil {
					if isRetryable(err) {
						r.dropped++
						continue
					}
					r.err = err
					return
				}
				r.lats = append(r.lats, time.Since(start))
				r.committed++
				atomic.AddInt64(&totalCommits, 1)
				if atomic.LoadInt32(&recovered) == 1 {
					after++
				}
				if err := serveAction(c, "s0", id, "remove"); err != nil && !isRetryable(err) {
					r.err = err
					return
				}
			}
		}()
	}

	// Wedge the shard only once the storm is demonstrably flowing: one 2s
	// stall at the commit site blows the generation deadline and the
	// watchdog takes over. Times=1 makes the fault transient — the wedge is
	// the slot's, and recovery must not re-inherit it.
	if err := waitChaos(10*time.Second, func() bool { return atomic.LoadInt64(&totalCommits) >= int64(healthy) }); err != nil {
		atomic.StoreInt32(&recovered, 1)
		wg.Wait()
		return nil, fmt.Errorf("storm never started committing")
	}
	inj.Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindStall, Rate: 1, Times: 1})

	err = waitChaos(30*time.Second, func() bool { return len(srv.ShardFailovers("s0")) > 0 })
	atomic.StoreInt32(&recovered, 1)
	if err != nil {
		wg.Wait()
		return nil, fmt.Errorf("watchdog never recovered the wedged shard")
	}
	wg.Wait()

	var lats []time.Duration
	for i := range rows {
		if rows[i].err != nil {
			return nil, rows[i].err
		}
		arm.Requests += rows[i].requests
		arm.Committed += rows[i].committed
		arm.Dropped += rows[i].dropped
		arm.Retries += rows[i].retries
		lats = append(lats, rows[i].lats...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		arm.P50 = lats[n/2]
		arm.P99 = lats[n*99/100]
	}
	for _, ev := range srv.ShardFailovers("s0") {
		arm.FailoverMS = maxf(arm.FailoverMS, ev.DurationMS)
	}
	arm.Restarts = srv.Fleet().Shards[0].Restarts
	return arm, nil
}

// waitChaos polls cond until true or the deadline passes.
func waitChaos(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("timeout")
}

// AddServeChaos folds the chaos summary into the artifact: worst-arm commit
// latencies, the failover window, and the absolute drop count.
func (a *Artifact) AddServeChaos(s *ServeChaosSummary) {
	if s == nil {
		return
	}
	var m ArtifactMetrics
	for _, arm := range s.Arms {
		m.P50MS = maxf(m.P50MS, durMS(arm.P50))
		m.P99MS = maxf(m.P99MS, durMS(arm.P99))
	}
	m.FailoverP99MS = s.FailoverP99MS
	m.DroppedHealthy = s.DroppedHealthy
	a.Experiments["serve-chaos"] = m
}

// PrintServeChaos renders the arm and the chaos verdict.
func PrintServeChaos(w io.Writer, s *ServeChaosSummary) {
	fmt.Fprintf(w, "Serve chaos — shard wedge mid-storm, restart in place (%s, %d tenants x %d commits)\n",
		s.Program, s.HealthyTenants, s.RequestsPerTenant)
	fmt.Fprintf(w, "%-10s %8s %9s %7s %7s %9s %9s %10s %8s\n",
		"arm", "requests", "committed", "dropped", "retries", "p50", "p99", "failover", "restarts")
	for _, a := range s.Arms {
		fmt.Fprintf(w, "%-10s %8d %9d %7d %7d %9s %9s %8.0fms %8d\n",
			a.Name, a.Requests, a.Committed, a.Dropped, a.Retries,
			a.P50.Round(10*time.Microsecond), a.P99.Round(10*time.Microsecond),
			a.FailoverMS, a.Restarts)
	}
	verdict := "PASS"
	if s.DroppedHealthy > 0 || s.FailoverP99MS > ChaosFailoverBudgetMS {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%s: %d healthy commits dropped (must be 0), worst failover %.0fms (budget %dms)\n",
		verdict, s.DroppedHealthy, s.FailoverP99MS, ChaosFailoverBudgetMS)
}
