package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var errHealthInjected = errors.New("injected commit failure")

// TestSupervisorHealthSnapshot pins the Health() contract the serve-layer
// watchdog consumes: a freshly committed supervisor reads healthy, a blocked
// generation surfaces as an in-flight generation with growing queue age, and
// commit recency resets once the block clears.
func TestSupervisorHealthSnapshot(t *testing.T) {
	e, box := supEngine(t, 4, 2)
	gate := make(chan struct{})
	var block atomic.Bool
	box.fn = func(site string) error {
		if site == "supervisor:commit" && block.Load() {
			<-gate
		}
		return nil
	}
	s := Supervise(e, SupervisorOptions{})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// A committed barrier: last-commit age set, nothing queued or in flight.
	tk, err := s.SyncCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tk.Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("sync: %v / %v", err, res.Err)
	}
	h := s.Health()
	if h.Breaker != "closed" || h.Closing {
		t.Fatalf("fresh supervisor unhealthy: %+v", h)
	}
	if h.LastCommitAge <= 0 {
		t.Fatalf("committed sync left LastCommitAge=%v", h.LastCommitAge)
	}
	if h.QueueDepth != 0 || h.OldestQueuedAge != 0 {
		t.Fatalf("idle queue reads non-empty: %+v", h)
	}

	// Block the next generation at its commit site and pile a second
	// request behind it: Health must show the generation in flight and the
	// queued request aging.
	block.Store(true)
	stuck, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h = s.Health()
		if h.GenInFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("generation never showed in flight: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	h = s.Health()
	if !h.GenInFlight || h.GenRunningFor <= 0 {
		t.Fatalf("blocked generation not reported: %+v", h)
	}
	if h.QueueDepth != 1 || h.OldestQueuedAge < 10*time.Millisecond {
		t.Fatalf("queued request not aging: %+v", h)
	}

	// Unblock: both tickets resolve and the snapshot settles back to idle
	// with a fresh commit.
	block.Store(false)
	close(gate)
	if res, err := stuck.Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("stuck sync: %v / %v", err, res.Err)
	}
	if res, err := queued.Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("queued sync: %v / %v", err, res.Err)
	}
	h = s.Health()
	if h.QueueDepth != 0 || h.OldestQueuedAge != 0 {
		t.Fatalf("queue bookkeeping leaked after drain: %+v", h)
	}
	if h.LastCommitAge <= 0 || h.LastCommitAge > 10*time.Second {
		t.Fatalf("commit recency not refreshed: %+v", h)
	}
}

// TestSupervisorHealthBreakerOpen pins the breaker-open-duration signal: a
// supervisor whose generations all fail reports "open" with a growing
// BreakerOpenFor.
func TestSupervisorHealthBreakerOpen(t *testing.T) {
	e, box := supEngine(t, 4, 2)
	box.fn = func(site string) error {
		if site == "supervisor:commit" {
			return errHealthInjected
		}
		return nil
	}
	s := Supervise(e, SupervisorOptions{
		BreakerThreshold: 1,
		BreakerBackoff:   time.Hour, // stay open for the whole test
	})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tk, err := s.SyncCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := tk.Wait(ctx); res.Err == nil {
		t.Fatal("faulted generation committed")
	}
	h := s.Health()
	if h.Breaker != "open" {
		t.Fatalf("breaker = %q after forced failure, want open", h.Breaker)
	}
	time.Sleep(10 * time.Millisecond)
	h2 := s.Health()
	if h2.BreakerOpenFor <= h.BreakerOpenFor || h2.BreakerOpenFor < 10*time.Millisecond {
		t.Fatalf("BreakerOpenFor not growing: %v then %v", h.BreakerOpenFor, h2.BreakerOpenFor)
	}
}

// TestSupervisorLoopPanicCapture drives a panic through the generation path
// outside the capture()-protected hooks and asserts the loop survives it:
// the batch fails with the panic as an error, LoopPanics counts it, and the
// supervisor keeps serving afterwards.
func TestSupervisorLoopPanicCapture(t *testing.T) {
	e, _ := supEngine(t, 4, 1)
	s := &Supervisor{
		eng:         e,
		opts:        SupervisorOptions{}.withDefaults(),
		queue:       make(chan *request, 4),
		quarantined: map[int]error{},
	}
	// A nil manager makes applyReq panic — a stand-in for any corruption in
	// the non-captured stretch of the generation path.
	mgr := e.Manager
	e.Manager = nil
	r := &request{kind: reqEnable, probeID: 1, t: newTicket(), enqueued: time.Now()}
	s.runGenerationSafe([]*request{r})
	e.Manager = mgr

	res, ok := r.t.Result()
	if !ok {
		t.Fatal("ticket unresolved after generation panic")
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panic") {
		t.Fatalf("ticket error = %v, want generation panic", res.Err)
	}
	if h := s.Health(); h.LoopPanics != 1 {
		t.Fatalf("LoopPanics = %d, want 1", h.LoopPanics)
	}
	if s.genStartNS.Load() != 0 {
		t.Fatal("genStartNS not cleared after panic")
	}
}
