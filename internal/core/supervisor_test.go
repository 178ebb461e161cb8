package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odin/internal/faultinject"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/link"
	"odin/internal/rt"
	"odin/internal/vm"
)

// supProbe is an engine-independent self-applying probe: it locates its
// target function in the schedule's temporary IR by name, so the same probe
// value can instrument both a supervised engine and a serially-built
// reference engine.
type supProbe struct {
	fnName string
	id     int64
}

func (p *supProbe) PatchTarget() string { return p.fnName }

func (p *supProbe) Instrument(s *Sched) error {
	f := s.MapFunc(p.fnName)
	if f == nil {
		return fmt.Errorf("function %s not in this recompilation", p.fnName)
	}
	nb := f.Blocks[0]
	hook := s.LookupFunction("__test_hit", &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(nb, len(nb.Phis()))
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, p.id))
	return nil
}

// supEngine builds an engine over n one-function fragments with the
// __test_hit builtin and a swappable fault hook, and runs the initial
// build.
func supEngine(t *testing.T, n, workers int) (*Engine, *hookBox) {
	t.Helper()
	box := &hookBox{}
	m := irtext.MustParse("m", manyFuncSrc(n))
	e, err := New(m, Options{
		Variant: VariantMax, Workers: workers,
		FaultHook:     box.at,
		ExtraBuiltins: []string{"__test_hit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatalf("clean build: %v", err)
	}
	return e, box
}

// runHits executes fn and records every __test_hit probe firing.
func runHits(exe *link.Executable, fn string, arg int64) (int64, []int64, error) {
	mach := vm.New(exe)
	var hits []int64
	mach.Env.Builtins["__test_hit"] = func(env *rt.Env, args []int64) (int64, error) {
		hits = append(hits, args[0])
		return 0, nil
	}
	ret, err := mach.Run(fn, arg)
	return ret, hits, err
}

// requireBehavior compares a supervised engine's final image against a
// reference engine built serially with the same active probe set: same
// return value, same probe firings.
func requireBehavior(t *testing.T, e *Engine, when string) {
	t.Helper()
	ref, err := New(e.Pristine, Options{Variant: VariantMax, ExtraBuiltins: []string{"__test_hit"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range e.Manager.Active() {
		p, _ := e.Manager.Get(id)
		ref.Manager.Add(p)
	}
	if _, _, err := ref.BuildAll(); err != nil {
		t.Fatalf("%s: reference build: %v", when, err)
	}
	wantRet, wantHits, err := runHits(ref.Executable(), "main", 7)
	if err != nil {
		t.Fatalf("%s: reference run: %v", when, err)
	}
	gotRet, gotHits, err := runHits(e.Executable(), "main", 7)
	if err != nil {
		t.Fatalf("%s: supervised run: %v", when, err)
	}
	if gotRet != wantRet {
		t.Fatalf("%s: main(7) = %d, reference %d", when, gotRet, wantRet)
	}
	if fmt.Sprint(gotHits) != fmt.Sprint(wantHits) {
		t.Fatalf("%s: probe hits %v, reference %v (stale commit?)", when, gotHits, wantHits)
	}
}

// TestSupervisorStorm is the headline concurrency test: 8 goroutines fire
// 512 blocking probe toggles at one supervisor. Every ticket must resolve
// exactly once with no error, requests must coalesce into far fewer rebuild
// generations than requests, and the final image must behave exactly like a
// serially-built reference with the same final probe state.
func TestSupervisorStorm(t *testing.T) {
	const goroutines, perG = 8, 64
	e, _ := supEngine(t, 2*goroutines, 4)
	s := Supervise(e, SupervisorOptions{})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	tickets := make([][]*Ticket, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine owns two disjoint functions; the storm is
			// contended on the supervisor, not on probe state.
			fa, fb := 2*g, 2*g+1
			ida, _, err := s.AddProbeCtx(ctx, &supProbe{fnName: fmt.Sprintf("f%d", fa), id: int64(fa)})
			if err != nil {
				t.Errorf("g%d: add a: %v", g, err)
				return
			}
			idb, _, err := s.AddProbeCtx(ctx, &supProbe{fnName: fmt.Sprintf("f%d", fb), id: int64(fb)})
			if err != nil {
				t.Errorf("g%d: add b: %v", g, err)
				return
			}
			submit := func(tk *Ticket, err error) bool {
				if err != nil {
					t.Errorf("g%d: submit: %v", g, err)
					return false
				}
				tickets[g] = append(tickets[g], tk)
				return true
			}
			for i := 0; i < perG-6; i++ {
				var tk *Ticket
				var err error
				id := ida
				if i%2 == 1 {
					id = idb
				}
				switch i % 3 {
				case 0:
					tk, err = s.RemoveProbeCtx(ctx, id)
				case 1:
					tk, err = s.EnableProbeCtx(ctx, id)
				default:
					tk, err = s.MarkChangedCtx(ctx, id)
				}
				if !submit(tk, err) {
					return
				}
			}
			// Deterministic final state: probe a active, probe b removed.
			for _, op := range []func() (*Ticket, error){
				func() (*Ticket, error) { return s.RemoveProbeCtx(ctx, ida) },
				func() (*Ticket, error) { return s.EnableProbeCtx(ctx, ida) },
				func() (*Ticket, error) { return s.EnableProbeCtx(ctx, idb) },
				func() (*Ticket, error) { return s.RemoveProbeCtx(ctx, idb) },
			} {
				tk, err := op()
				if !submit(tk, err) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	total := 0
	for g := range tickets {
		for i, tk := range tickets[g] {
			res, ok := tk.Result()
			if !ok {
				t.Fatalf("g%d ticket %d never resolved", g, i)
			}
			if res.Err != nil {
				t.Fatalf("g%d ticket %d: %v", g, i, res.Err)
			}
			if res.Exe == nil {
				t.Fatalf("g%d ticket %d resolved without an executable", g, i)
			}
			total++
		}
	}
	st := s.Stats()
	// +2 per goroutine for the AddProbe tickets not tracked above.
	if want := uint64(total + 2*goroutines); st.Requests != want {
		t.Fatalf("requests = %d, want %d", st.Requests, want)
	}
	if st.DoubleResolves != 0 {
		t.Fatalf("%d tickets resolved more than once", st.DoubleResolves)
	}
	if st.Generations == 0 || st.CoalescingRatio <= 2 {
		t.Fatalf("coalescing ratio %.2f over %d generations, want > 2",
			st.CoalescingRatio, st.Generations)
	}
	if st.GenerationFailures != 0 || len(st.QuarantinedProbes) != 0 {
		t.Fatalf("unexpected failures: %+v", st)
	}
	t.Logf("storm: %d requests, %d generations, ratio %.1f",
		st.Requests, st.Generations, st.CoalescingRatio)
	requireBehavior(t, e, "after storm")
}

// TestSupervisorPoisonBisection: a probe whose instrumentation always fails
// is batched together with healthy probes. The generation fails whole;
// bisection must quarantine exactly the poison probe while the co-batched
// healthy probes commit.
func TestSupervisorPoisonBisection(t *testing.T) {
	e, box := supEngine(t, 8, 4)
	inj := faultinject.New(7).
		Arm(faultinject.Rule{Site: "instrument:f3", Kind: faultinject.KindError, Rate: 1}).
		// A one-shot stall holds the first generation open long enough for
		// the poison and healthy requests to land in one batch.
		Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindStall, Rate: 1, Times: 1}).
		SetStall(150 * time.Millisecond)
	box.fn = inj.At
	s := Supervise(e, SupervisorOptions{})
	defer s.Close()

	gate, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	poisonID, poisonT, err := s.AddProbe(&supProbe{fnName: "f3", id: 3})
	if err != nil {
		t.Fatal(err)
	}
	h1ID, h1T, err := s.AddProbe(&supProbe{fnName: "f1", id: 1})
	if err != nil {
		t.Fatal(err)
	}
	h5ID, h5T, err := s.AddProbe(&supProbe{fnName: "f5", id: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := gate.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := poisonT.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var qerr *ProbeQuarantinedError
	if !errors.As(res.Err, &qerr) || qerr.ProbeID != poisonID {
		t.Fatalf("poison ticket: %v, want ProbeQuarantinedError for %d", res.Err, poisonID)
	}
	if !faultinject.IsInjected(qerr.Cause) {
		t.Fatalf("quarantine cause not the injected fault: %v", qerr.Cause)
	}
	for name, tk := range map[int]*Ticket{h1ID: h1T, h5ID: h5T} {
		hres, err := tk.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if hres.Err != nil {
			t.Fatalf("healthy probe %d did not commit: %v", name, hres.Err)
		}
	}
	if q := s.QuarantinedProbes(); len(q) != 1 || q[0] != poisonID {
		t.Fatalf("quarantined = %v, want [%d]", q, poisonID)
	}
	if st := s.Stats(); st.GenerationFailures == 0 || st.BisectRebuilds == 0 {
		t.Fatalf("bisection left no trace: %+v", st)
	}

	// The committed image carries the healthy hooks and not the poison one.
	_, hits, err := runHits(e.Executable(), "main", 7)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(hits) != "[1 5]" {
		t.Fatalf("hits = %v, want [1 5]", hits)
	}

	// Quarantine gates re-activation at admission.
	if _, err := s.EnableProbe(poisonID); !errors.As(err, &qerr) {
		t.Fatalf("enable of quarantined probe: %v, want fail-fast quarantine error", err)
	}
	if _, err := s.MarkChanged(poisonID); !errors.As(err, &qerr) {
		t.Fatalf("mark of quarantined probe: %v, want fail-fast quarantine error", err)
	}

	// Remove is the recovery path: it commits and clears the quarantine, and
	// once the fault is gone the probe can come back.
	rmT, err := s.RemoveProbe(poisonID)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := rmT.Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("remove of quarantined probe: %v / %v", err, res.Err)
	}
	if q := s.QuarantinedProbes(); len(q) != 0 {
		t.Fatalf("quarantine not cleared by remove: %v", q)
	}
	box.fn = nil
	reT, err := s.EnableProbe(poisonID)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := reT.Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("re-enable after fault cleared: %v / %v", err, res.Err)
	}
	_, hits, err = runHits(e.Executable(), "main", 7)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(hits) != "[1 3 5]" {
		t.Fatalf("hits after recovery = %v, want [1 3 5]", hits)
	}
	requireBehavior(t, e, "after poison recovery")
}

// waitBreaker polls until the breaker reaches the wanted state (state
// updates trail ticket resolution by design).
func waitBreaker(t *testing.T, s *Supervisor, want BreakerState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Breaker() != want {
		if time.Now().After(deadline) {
			t.Fatalf("breaker stuck at %v, want %v", s.Breaker(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSupervisorBreaker drives the circuit breaker through its whole state
// machine: K consecutive generations whose control rebuild fails open it,
// admission fails fast, a failed half-open trial reopens it with doubled
// backoff, and a clean trial closes it. The requests are probe enables, so
// the test also pins that an engine failure quarantines nobody.
func TestSupervisorBreaker(t *testing.T) {
	e, box := supEngine(t, 4, 2)
	inj := faultinject.New(3).
		Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindError, Rate: 1})
	box.fn = inj.At
	const backoff = 60 * time.Millisecond
	s := Supervise(e, SupervisorOptions{BreakerThreshold: 2, BreakerBackoff: backoff})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// add enqueues a probe on fn and waits for its ticket.
	add := func(fn string) (int, TicketResult) {
		t.Helper()
		id, tk, err := s.AddProbe(&supProbe{fnName: fn, id: int64(fn[1] - '0')})
		if err != nil {
			t.Fatalf("add %s rejected: %v", fn, err)
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return id, res
	}
	requireEngineFailure := func(what string, res TicketResult) {
		t.Helper()
		if !errors.Is(res.Err, ErrEngineUnhealthy) || !faultinject.IsInjected(res.Err) {
			t.Fatalf("%s: %v, want ErrEngineUnhealthy wrapping the injected failure", what, res.Err)
		}
	}
	var ids []int
	for i := 0; i < 2; i++ {
		id, res := add(fmt.Sprintf("f%d", i))
		requireEngineFailure(fmt.Sprintf("add %d", i), res)
		ids = append(ids, id)
	}
	waitBreaker(t, s, BreakerOpen)
	if _, err := s.EnableProbe(ids[0]); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker admitted a request: %v", err)
	}

	// After the backoff a request is admitted as the half-open trial; still
	// armed, it fails and the breaker reopens with the backoff doubled.
	time.Sleep(backoff + 20*time.Millisecond)
	_, res := add("f2")
	requireEngineFailure("trial", res)
	waitBreaker(t, s, BreakerOpen)
	if _, err := s.EnableProbe(ids[0]); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("reopened breaker admitted a request: %v", err)
	}

	// Clear the fault, wait out the doubled backoff: the next trial succeeds
	// and the breaker closes.
	box.fn = nil
	time.Sleep(2*backoff + 40*time.Millisecond)
	if _, res := add("f3"); res.Err != nil {
		t.Fatalf("recovery trial failed: %v", res.Err)
	}
	waitBreaker(t, s, BreakerClosed)
	st := s.Stats()
	if st.RejectedCircuitOpen < 2 {
		t.Fatalf("rejected-open = %d, want >= 2", st.RejectedCircuitOpen)
	}
	// closed->open->half-open->open->half-open->closed.
	if st.BreakerTransitions < 5 {
		t.Fatalf("transitions = %d, want >= 5", st.BreakerTransitions)
	}
	if len(st.QuarantinedProbes) != 0 {
		t.Fatalf("engine failures must not quarantine: %v", st.QuarantinedProbes)
	}
}

// TestSupervisorPoisonKeepsBreakerClosed: K+2 generations that carry nothing
// but a poison probe fail whole, but each control rebuild passes, so the
// poison is quarantined and the breaker stays closed for everyone else.
func TestSupervisorPoisonKeepsBreakerClosed(t *testing.T) {
	e, box := supEngine(t, 8, 2)
	box.fn = func(site string) error {
		if site == "instrument:f3" {
			return errHealthInjected
		}
		return nil
	}
	const k = 2
	s := Supervise(e, SupervisorOptions{BreakerThreshold: k})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < k+2; i++ {
		_, tk, err := s.AddProbe(&supProbe{fnName: "f3", id: 3})
		if err != nil {
			t.Fatalf("poison add %d rejected: %v", i, err)
		}
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var qerr *ProbeQuarantinedError
		if !errors.As(res.Err, &qerr) || errors.Is(res.Err, ErrEngineUnhealthy) {
			t.Fatalf("poison add %d: %v, want quarantine", i, res.Err)
		}
		if b := s.Breaker(); b != BreakerClosed {
			t.Fatalf("breaker %v after %d poison-only generations", b, i+1)
		}
	}
	_, tk, err := s.AddProbe(&supProbe{fnName: "f1", id: 1})
	if err != nil {
		t.Fatalf("healthy add rejected: %v", err)
	}
	if res, err := tk.Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("healthy add: %v / %v", err, res.Err)
	}
	if q := s.QuarantinedProbes(); len(q) != k+2 {
		t.Fatalf("quarantined %v, want the %d poison probes", q, k+2)
	}
	requireBehavior(t, e, "after poison storm")
}

// TestSupervisorEngineFailureQuarantinesNobody: while every rebuild fails
// at supervisor:commit, N co-batched enables are all failed as retryable,
// none is quarantined, and the breaker opens after K generations. Once the
// fault clears, all N commit.
func TestSupervisorEngineFailureQuarantinesNobody(t *testing.T) {
	e, box := supEngine(t, 8, 2)
	var failing atomic.Bool
	failing.Store(true)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var held atomic.Bool
	box.fn = func(site string) error {
		if site != "supervisor:commit" || !failing.Load() {
			return nil
		}
		// Hold the first generation so the N enables coalesce behind it.
		if held.CompareAndSwap(false, true) {
			entered <- struct{}{}
			<-release
		}
		return errHealthInjected
	}
	const n, k, backoff = 6, 2, 50 * time.Millisecond
	s := Supervise(e, SupervisorOptions{BreakerThreshold: k, BreakerBackoff: backoff})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	first, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	ids := make([]int, n)
	tks := make([]*Ticket, n)
	for i := range ids {
		if ids[i], tks[i], err = s.AddProbe(&supProbe{fnName: fmt.Sprintf("f%d", i), id: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if res, _ := first.Wait(ctx); !errors.Is(res.Err, ErrEngineUnhealthy) {
		t.Fatalf("first generation: %v, want ErrEngineUnhealthy", res.Err)
	}
	for i, tk := range tks {
		res, err := tk.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(res.Err, ErrEngineUnhealthy) || !errors.Is(res.Err, errHealthInjected) {
			t.Fatalf("enable %d: %v, want ErrEngineUnhealthy wrapping the fault", i, res.Err)
		}
		if res.Gen != 2 {
			t.Fatalf("enable %d resolved by generation %d, want the coalesced generation 2", i, res.Gen)
		}
	}
	waitBreaker(t, s, BreakerOpen)
	if q := s.QuarantinedProbes(); len(q) != 0 {
		t.Fatalf("engine failure quarantined %v", q)
	}

	// Clear the fault and wait out the backoff: the retried enables all
	// commit, the first of them as the half-open trial.
	failing.Store(false)
	time.Sleep(backoff + 20*time.Millisecond)
	retry := make([]*Ticket, n)
	for i, id := range ids {
		if retry[i], err = s.EnableProbe(id); err != nil {
			t.Fatalf("retry %d rejected: %v", i, err)
		}
	}
	for i, tk := range retry {
		if res, err := tk.Wait(ctx); err != nil || res.Err != nil {
			t.Fatalf("retry %d: %v / %v", i, err, res.Err)
		}
	}
	waitBreaker(t, s, BreakerClosed)
	if got := len(e.Manager.Active()); got != n {
		t.Fatalf("%d probes active, want %d", got, n)
	}
	requireBehavior(t, e, "after engine recovery")
}

// TestSupervisorAbandon: Abandon returns while the loop is stuck inside a
// generation, admission closes at once, and when the generation unsticks it
// commits its own batch while everything queued behind it resolves with
// ErrSupervisorClosed — the serve layer's cue to re-admit elsewhere.
func TestSupervisorAbandon(t *testing.T) {
	e, box := supEngine(t, 4, 2)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	box.fn = func(site string) error {
		if site == "supervisor:commit" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return nil
	}
	s := Supervise(e, SupervisorOptions{})
	defer s.Close()

	inFlight, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	queued, err := s.Sync()
	if err != nil {
		t.Fatalf("queued request rejected: %v", err)
	}

	returned := make(chan struct{})
	go func() {
		s.Abandon()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Abandon waited on the stuck generation")
	}
	if _, err := s.Sync(); !errors.Is(err, ErrSupervisorClosed) {
		t.Fatalf("admission after Abandon: %v, want ErrSupervisorClosed", err)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if res, err := inFlight.Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("in-flight ticket: %v / %v", err, res.Err)
	}
	if res, err := queued.Wait(ctx); err != nil || !errors.Is(res.Err, ErrSupervisorClosed) {
		t.Fatalf("queued ticket: %v / %v, want ErrSupervisorClosed", err, res.Err)
	}
}

// TestSupervisorQueueFull: with a depth-1 queue and a stalled rebuild loop,
// non-blocking admission must shed load with ErrQueueFull, and a rejected
// AddProbe must not leak its manager registration.
func TestSupervisorQueueFull(t *testing.T) {
	e, box := supEngine(t, 4, 2)
	inj := faultinject.New(5).
		Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindStall, Rate: 1, Times: 1}).
		SetStall(400 * time.Millisecond)
	box.fn = inj.At
	s := Supervise(e, SupervisorOptions{QueueDepth: 1})
	defer s.Close()

	gate, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // loop is now inside the stall

	if _, err := s.Sync(); err != nil { // fills the depth-1 queue
		t.Fatalf("queued request rejected: %v", err)
	}
	numProbes := func() int {
		e.Manager.mu.Lock()
		defer e.Manager.mu.Unlock()
		return len(e.Manager.probes)
	}
	before := numProbes()
	if _, _, err := s.AddProbe(&supProbe{fnName: "f1", id: 1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow AddProbe: %v, want ErrQueueFull", err)
	}
	if after := numProbes(); after != before {
		t.Fatalf("rejected AddProbe leaked a manager entry: %d -> %d", before, after)
	}
	if st := s.Stats(); st.RejectedQueueFull == 0 {
		t.Fatalf("rejection not counted: %+v", st)
	}
	// The blocking variant rides out the backpressure instead.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tk, err := s.SyncCtx(ctx)
	if err != nil {
		t.Fatalf("blocking admission failed: %v", err)
	}
	for _, w := range []*Ticket{gate, tk} {
		if res, err := w.Wait(ctx); err != nil || res.Err != nil {
			t.Fatalf("ticket: %v / %v", err, res.Err)
		}
	}
}

// TestSupervisorClose: Close lets the in-flight generation finish, resolves
// still-queued tickets with ErrSupervisorClosed, rejects new work, and is
// idempotent.
func TestSupervisorClose(t *testing.T) {
	e, box := supEngine(t, 4, 2)
	inj := faultinject.New(5).
		Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindStall, Rate: 1, Times: 1}).
		SetStall(300 * time.Millisecond)
	box.fn = inj.At
	s := Supervise(e, SupervisorOptions{})

	inflight, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // in-flight generation is stalling
	var queued []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := s.Sync()
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if res, err := inflight.Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("in-flight generation abandoned at close: %v / %v", err, res.Err)
	}
	for i, tk := range queued {
		res, ok := tk.Result()
		if !ok {
			t.Fatalf("queued ticket %d lost at close", i)
		}
		if !errors.Is(res.Err, ErrSupervisorClosed) {
			t.Fatalf("queued ticket %d: %v, want ErrSupervisorClosed", i, res.Err)
		}
	}
	if _, err := s.Sync(); !errors.Is(err, ErrSupervisorClosed) {
		t.Fatalf("post-close admission: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestSupervisorDrain: Drain processes everything already queued to
// completion before stopping.
func TestSupervisorDrain(t *testing.T) {
	e, box := supEngine(t, 4, 2)
	inj := faultinject.New(5).
		Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindStall, Rate: 1, Times: 1}).
		SetStall(200 * time.Millisecond)
	box.fn = inj.At
	s := Supervise(e, SupervisorOptions{})

	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	id, addT, err := s.AddProbe(&supProbe{fnName: "f2", id: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, ok := addT.Result()
	if !ok {
		t.Fatal("queued ticket not processed by drain")
	}
	if res.Err != nil {
		t.Fatalf("drained request failed: %v", res.Err)
	}
	if !e.Manager.IsActive(id) {
		t.Fatal("drained probe not active")
	}
	requireBehavior(t, e, "after drain")
}

// TestSupervisorSoak hammers one supervisor from 8 goroutines under seeded
// random faults on the commit, instrument, and link sites, with a small
// queue and a twitchy breaker. Invariants: no ticket is ever lost or
// resolved twice, the process survives, and the final image matches a
// serially-built reference for the final probe state (never a stale
// commit). Bounded by ODIN_SOAK_MS (default 1200).
func TestSupervisorSoak(t *testing.T) {
	dur := 1200 * time.Millisecond
	if ms := os.Getenv("ODIN_SOAK_MS"); ms != "" {
		v, err := strconv.Atoi(ms)
		if err != nil {
			t.Fatalf("ODIN_SOAK_MS: %v", err)
		}
		dur = time.Duration(v) * time.Millisecond
	}
	const goroutines = 8
	e, box := supEngine(t, 2*goroutines, 4)
	inj := faultinject.New(99).
		Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindError, Rate: 0.05}).
		Arm(faultinject.Rule{Site: "instrument:f2", Kind: faultinject.KindPanic, Rate: 0.5}).
		Arm(faultinject.Rule{Site: "link:*", Kind: faultinject.KindError, Rate: 0.02})
	box.fn = inj.At
	s := Supervise(e, SupervisorOptions{
		QueueDepth:       32,
		BreakerThreshold: 3,
		BreakerBackoff:   20 * time.Millisecond,
	})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), dur+120*time.Second)
	defer cancel()
	deadline := time.Now().Add(dur)

	var wg sync.WaitGroup
	tickets := make([][]*Ticket, goroutines)
	var rejected [goroutines]int
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			ids := []int{}
			for time.Now().Before(deadline) {
				var tk *Ticket
				var err error
				switch op := rng.Intn(10); {
				case op == 0 || len(ids) == 0:
					// Own two functions; f2 belongs to g=1 and is the
					// poisoned one.
					fn := 2*g + rng.Intn(2)
					var id int
					id, tk, err = s.AddProbeCtx(ctx, &supProbe{fnName: fmt.Sprintf("f%d", fn), id: int64(fn)})
					if err == nil {
						ids = append(ids, id)
					}
				case op < 4:
					tk, err = s.EnableProbeCtx(ctx, ids[rng.Intn(len(ids))])
				case op < 7:
					tk, err = s.RemoveProbeCtx(ctx, ids[rng.Intn(len(ids))])
				case op < 9:
					tk, err = s.MarkChangedCtx(ctx, ids[rng.Intn(len(ids))])
				default:
					tk, err = s.SyncCtx(ctx)
				}
				switch {
				case err == nil:
					tickets[g] = append(tickets[g], tk)
				case errors.Is(err, ErrCircuitOpen):
					rejected[g]++
					time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
				default:
					var qe *ProbeQuarantinedError
					if errors.As(err, &qe) {
						rejected[g]++
						continue
					}
					t.Errorf("g%d: unexpected admission error: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	nTickets, nErrs := 0, 0
	for g := range tickets {
		for i, tk := range tickets[g] {
			res, ok := tk.Result()
			if !ok {
				t.Fatalf("g%d ticket %d lost (resolved zero times)", g, i)
			}
			if res.Err != nil {
				nErrs++
			}
			nTickets++
		}
	}
	st := s.Stats()
	if st.DoubleResolves != 0 {
		t.Fatalf("%d tickets resolved twice", st.DoubleResolves)
	}
	if uint64(nTickets) != st.Requests {
		t.Fatalf("tracked %d tickets, supervisor admitted %d", nTickets, st.Requests)
	}
	nRejected := 0
	for _, r := range rejected {
		nRejected += r
	}
	t.Logf("soak: %d requests (+%d fast-failed), %d failed-resolve, %d generations (ratio %.1f), %d gen failures, %d bisect rebuilds, %d quarantines, breaker %s",
		nTickets, nRejected, nErrs, st.Generations, st.CoalescingRatio,
		st.GenerationFailures, st.BisectRebuilds, len(st.QuarantinedProbes), st.Breaker)

	// Disarm and verify the committed image is exactly what a serial build
	// of the surviving probe state produces — no stale commit slipped out.
	box.fn = nil
	requireBehavior(t, e, "after soak")
}

// TestSupervisorStatsJSON sanity-checks the snapshot used by the
// introspection endpoint.
func TestSupervisorStatsJSON(t *testing.T) {
	e, _ := supEngine(t, 2, 1)
	s := Supervise(e, SupervisorOptions{QueueDepth: 7})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tk, err := s.SyncCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.QueueCapacity != 7 || st.Requests != 1 || st.Generations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Breaker != "closed" {
		t.Fatalf("breaker = %q", st.Breaker)
	}
	if sort.IntsAreSorted(st.QuarantinedProbes) == false {
		t.Fatal("quarantined list must be sorted")
	}
}
