package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"odin/internal/faultinject"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/link"
	"odin/internal/progen"
	"odin/internal/rt"
	"odin/internal/vm"
)

// hookBox lets a test swap the engine's fault hook after construction: the
// engine is built with box.at, and box.fn is (re)assigned between rebuilds.
type hookBox struct{ fn func(site string) error }

func (b *hookBox) at(site string) error {
	if b.fn == nil {
		return nil
	}
	return b.fn(site)
}

// faultEngine builds a clean engine (one fragment per function) whose fault
// hook is routed through the returned box, runs the initial build, and
// returns the reference result of main(7).
func faultEngine(t *testing.T, n, workers int) (*Engine, *hookBox, int64) {
	t.Helper()
	return variantFaultEngine(t, VariantMax, n, workers)
}

// variantFaultEngine is faultEngine under partition variant v.
func variantFaultEngine(t *testing.T, v Variant, n, workers int) (*Engine, *hookBox, int64) {
	t.Helper()
	box := &hookBox{}
	m := irtext.MustParse("m", manyFuncSrc(n))
	e, err := New(m, Options{Variant: v, Workers: workers, FaultHook: box.at})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatalf("clean build: %v", err)
	}
	ref, err := vmRun(e.Executable(), "main", 7)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return e, box, ref
}

// engineSnap captures the engine's committed state by identity: objects and
// executables are immutable after construction, so pointer equality is
// byte-identity.
type engineSnap struct {
	frags []fragState
	exe   *link.Executable
}

func snapEngine(e *Engine) engineSnap {
	return engineSnap{frags: append([]fragState(nil), e.frags...), exe: e.exe}
}

// cachedObjects counts the fragments that have a committed object.
func cachedObjects(e *Engine) int { return e.Snapshot().CachedObjects }

// requireUnchanged asserts a failed rebuild left the image and every
// fragment's record — object, fingerprint, deferral — exactly as they were.
func (s engineSnap) requireUnchanged(t *testing.T, e *Engine, when string) {
	t.Helper()
	if e.exe != s.exe {
		t.Fatalf("%s: executable replaced", when)
	}
	for id, was := range s.frags {
		now := e.frags[id]
		if now.obj != was.obj || now.hash != was.hash || now.hashKnown != was.hashKnown ||
			now.deferred != was.deferred {
			t.Fatalf("%s: fragment %d record changed: %+v -> %+v", when, id, was, now)
		}
	}
}

// TestFaultEverySiteNoCorruption arms a rate-1 fault — error and panic — at
// every pipeline site in turn and rebuilds with the cache fingerprints
// invalidated, so every fragment really recompiles through the fault. The
// invariants, per site class: the process never crashes, every failure is a
// typed FragError (or the rebuild degrades and succeeds), and fragments that
// were not freshly committed keep their exact last-good objects.
func TestFaultEverySiteNoCorruption(t *testing.T) {
	optSites := []string{
		"opt:constprop", "opt:instcombine", "opt:cse", "opt:simplifycfg",
		"opt:dce", "opt:loopunroll", "opt:inline", "opt:deadargelim",
		"opt:globaldce",
	}
	kinds := []faultinject.Kind{faultinject.KindError, faultinject.KindPanic}

	for _, kind := range kinds {
		for _, site := range optSites {
			site, kind := site, kind
			t.Run(site+"/"+string(kind), func(t *testing.T) {
				e, box, ref := faultEngine(t, 8, 4)
				inj := faultinject.New(42).Arm(faultinject.Rule{Site: site, Kind: kind, Rate: 1})
				box.fn = inj.At
				e.InvalidateCache()
				_, st, err := e.BuildAll()
				if err != nil {
					t.Fatalf("opt-site fault must degrade, not fail: %v", err)
				}
				if inj.TotalInjected() == 0 {
					t.Fatal("no faults injected")
				}
				if st.Degraded != len(st.Fragments) || st.Deferred != 0 {
					t.Fatalf("degraded %d / deferred %d of %d fragments, want all degraded",
						st.Degraded, st.Deferred, len(st.Fragments))
				}
				if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
					t.Fatalf("degraded image wrong: main(7) = %d, %v, want %d", r, rerr, ref)
				}
			})
		}

		kind := kind
		t.Run("codegen:module/"+string(kind), func(t *testing.T) {
			e, box, ref := faultEngine(t, 8, 4)
			inj := faultinject.New(42).Arm(faultinject.Rule{Site: "codegen:module", Kind: kind, Rate: 1})
			box.fn = inj.At
			e.InvalidateCache()
			snap := snapEngine(e)
			_, st, err := e.BuildAll()
			if err != nil {
				t.Fatalf("warm-cache codegen fault must defer, not fail: %v", err)
			}
			if st.Deferred != len(st.Fragments) || len(st.DeferredFrags) != st.Deferred {
				t.Fatalf("deferred %d of %d fragments (%v), want all",
					st.Deferred, len(st.Fragments), st.DeferredFrags)
			}
			for id, was := range snap.frags {
				if e.frags[id].obj != was.obj || !e.frags[id].deferred {
					t.Fatalf("deferred fragment %d lost its last-good object or its deferral", id)
				}
			}
			if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
				t.Fatalf("deferred image wrong: main(7) = %d, %v, want %d", r, rerr, ref)
			}
			if len(e.Snapshot().Deferred) == 0 {
				t.Fatal("no fragments recorded as deferred")
			}

			// The deferral is not permanent: with the fault gone, the next
			// rebuild retries exactly the deferred fragments and clears them.
			box.fn = nil
			_, st2, err := e.BuildAll()
			if err != nil {
				t.Fatalf("retry rebuild: %v", err)
			}
			if len(st2.Fragments) != st.Deferred || st2.Deferred != 0 {
				t.Fatalf("retry compiled %d fragments with %d still deferred, want %d and 0",
					len(st2.Fragments), st2.Deferred, st.Deferred)
			}
			if got := e.Snapshot().Deferred; got != nil {
				t.Fatalf("deferred set not cleared: %v", got)
			}
			if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
				t.Fatalf("recovered image wrong: main(7) = %d, %v, want %d", r, rerr, ref)
			}
		})

		t.Run("codegen:<func>/"+string(kind), func(t *testing.T) {
			e, box, ref := faultEngine(t, 8, 4)
			box.fn = faultinject.New(42).Arm(faultinject.Rule{Site: "codegen:f3", Kind: kind, Rate: 1}).At
			e.InvalidateCache()
			_, st, err := e.BuildAll()
			if err != nil {
				t.Fatalf("per-function codegen fault must defer its fragment, not fail: %v", err)
			}
			if want := e.Plan.FragOf["f3"]; len(st.DeferredFrags) != 1 || st.DeferredFrags[0] != want {
				t.Fatalf("deferred %v, want only @f3's fragment %d", st.DeferredFrags, want)
			}
			if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
				t.Fatalf("deferred image wrong: main(7) = %d, %v, want %d", r, rerr, ref)
			}
		})

		t.Run("link:incremental/"+string(kind), func(t *testing.T) {
			e, box, ref := faultEngine(t, 8, 4)
			inj := faultinject.New(42).Arm(faultinject.Rule{Site: "link:incremental", Kind: kind, Rate: 1})
			box.fn = inj.At
			e.InvalidateCache()
			if _, _, err := e.BuildAll(); err != nil {
				t.Fatalf("relink fault must degrade to a full link, not fail: %v", err)
			}
			if e.linker.RelinkFaults == 0 {
				t.Fatal("relink fault not recorded")
			}
			if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
				t.Fatalf("full-link fallback image wrong: main(7) = %d, %v, want %d", r, rerr, ref)
			}
		})

		t.Run("link:full/"+string(kind), func(t *testing.T) {
			e, box, ref := faultEngine(t, 8, 4)
			inj := faultinject.New(42).
				Arm(faultinject.Rule{Site: "link:*", Kind: kind, Rate: 1})
			box.fn = inj.At
			e.InvalidateCache()
			snap := snapEngine(e)
			_, _, err := e.BuildAll()
			if err == nil {
				t.Fatal("full-link fault did not fail the rebuild")
			}
			var fe FragError
			if !errors.As(err, &fe) || fe.Stage != StageLink || fe.FragID != -1 {
				t.Fatalf("error %T %v, want image-level link FragError", err, err)
			}
			if !faultinject.IsInjected(err) {
				t.Fatalf("injected fault not identifiable: %v", err)
			}
			snap.requireUnchanged(t, e, "after failed link")

			// The failed schedule stays dirty; disarming and rebuilding
			// recovers on the same engine.
			box.fn = nil
			if _, _, err := e.BuildAll(); err != nil {
				t.Fatalf("recovery rebuild: %v", err)
			}
			if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
				t.Fatalf("recovered image wrong: main(7) = %d, %v, want %d", r, rerr, ref)
			}
		})
	}
}

// TestFaultLadderOptLevel: a fault in a level-2-only pass degrades the
// fragment to -O1 on the second attempt — no quarantine needed, because the
// pass simply does not run at the lower level.
func TestFaultLadderOptLevel(t *testing.T) {
	e, box, ref := faultEngine(t, 4, 2)
	inj := faultinject.New(7).Arm(faultinject.Rule{Site: "opt:inline", Kind: faultinject.KindError, Rate: 1})
	box.fn = inj.At
	e.InvalidateCache()
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 0 {
		t.Fatalf("quarantined %d passes, want 0 (level drop suffices)", st.Quarantined)
	}
	for _, fc := range st.Fragments {
		if fc.Level != 1 || fc.Attempts != 2 || !fc.Degraded {
			t.Fatalf("fragment %d: level %d after %d attempts (degraded=%v), want -O1 on attempt 2",
				fc.FragID, fc.Level, fc.Attempts, fc.Degraded)
		}
	}
	if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
		t.Fatalf("main(7) = %d, %v, want %d", r, rerr, ref)
	}
}

// TestFaultQuarantine: a fault in a local pass (runs at every level >= 1)
// exhausts the level ladder, lands at -O0 with the pass quarantined, and the
// quarantine persists: the next real recompile of the fragment skips the
// pass and succeeds at full level on the first attempt.
func TestFaultQuarantine(t *testing.T) {
	e, box, ref := faultEngine(t, 4, 2)
	inj := faultinject.New(7).Arm(faultinject.Rule{Site: "opt:cse", Kind: faultinject.KindError, Rate: 1})
	box.fn = inj.At
	e.InvalidateCache()
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != len(st.Fragments) {
		t.Fatalf("quarantined %d of %d fragments, want all", st.Quarantined, len(st.Fragments))
	}
	for _, fc := range st.Fragments {
		if fc.Level != 0 || fc.Attempts != 3 || fc.QuarantinedPass != "cse" {
			t.Fatalf("fragment %d: level %d, attempts %d, quarantined %q; want -O0/3/cse",
				fc.FragID, fc.Level, fc.Attempts, fc.QuarantinedPass)
		}
	}
	if got := e.Snapshot().Quarantined[0]; len(got) != 1 || got[0] != "cse" {
		t.Fatalf("quarantined passes of fragment 0 = %v, want [cse]", got)
	}

	// Fault still armed, pass now quarantined: the next recompile routes
	// around the site entirely and holds the configured level.
	e.InvalidateCache()
	_, st2, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range st2.Fragments {
		if fc.Level != 2 || fc.Attempts != 1 || !fc.Degraded {
			t.Fatalf("fragment %d after quarantine: level %d, attempts %d, degraded %v; want 2/1/true",
				fc.FragID, fc.Level, fc.Attempts, fc.Degraded)
		}
	}
	if st2.Quarantined != 0 {
		t.Fatalf("re-quarantined %d passes, want 0", st2.Quarantined)
	}
	if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
		t.Fatalf("main(7) = %d, %v, want %d", r, rerr, ref)
	}
}

// TestFaultPanicHardFailure: with a cold cache there is no last-good object
// to fall back to, so an injected panic surfaces as a typed, stage- and
// stack-attributed FragError inside a RebuildError — never a process crash —
// and nothing is committed.
func TestFaultPanicHardFailure(t *testing.T) {
	box := &hookBox{}
	m := irtext.MustParse("m", manyFuncSrc(4))
	e, err := New(m, Options{Variant: VariantMax, Workers: 2, FaultHook: box.at})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(3).Arm(faultinject.Rule{Site: "codegen:module", Kind: faultinject.KindPanic, Rate: 1})
	box.fn = inj.At
	_, _, err = e.BuildAll()
	var rerr *RebuildError
	if !errors.As(err, &rerr) {
		t.Fatalf("error %T: %v", err, err)
	}
	if len(rerr.Failed) == 0 {
		t.Fatal("no fragment failures recorded")
	}
	for _, fe := range rerr.Failed {
		if fe.Stage != StageCodegen {
			t.Fatalf("fragment %d failed at stage %q, want codegen", fe.FragID, fe.Stage)
		}
		if !fe.Panicked() || !strings.Contains(string(fe.Stack), "goroutine") {
			t.Fatalf("fragment %d: panic stack not captured", fe.FragID)
		}
	}
	if !faultinject.IsInjected(err) {
		t.Fatalf("injected panic not identifiable through the error chain: %v", err)
	}
	if cachedObjects(e) != 0 || e.Executable() != nil {
		t.Fatal("failed cold build committed state")
	}
}

// TestFaultPanicAttribution: a panic raised inside an optimizer pass site is
// attributed to that pass, which is what lets the ladder quarantine it.
func TestFaultPanicAttribution(t *testing.T) {
	e, box, _ := faultEngine(t, 4, 1)
	inj := faultinject.New(3).Arm(faultinject.Rule{Site: "opt:instcombine", Kind: faultinject.KindPanic, Rate: 1})
	box.fn = inj.At
	e.InvalidateCache()
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range st.Fragments {
		if fc.QuarantinedPass != "instcombine" {
			t.Fatalf("fragment %d: panic quarantined %q, want instcombine", fc.FragID, fc.QuarantinedPass)
		}
	}
	if st.Quarantined != len(st.Fragments) {
		t.Fatalf("quarantined %d of %d", st.Quarantined, len(st.Fragments))
	}
}

// TestRebuildTimeout: a stalled pipeline site trips Options.RebuildTimeout
// on the parallel pool, with one worker, and on a one-fragment schedule that
// clamps the pool to one worker. The rebuild returns a *TimeoutError that
// unwraps to context.DeadlineExceeded within the deadline's reach, the cache
// and executable are untouched, and the engine rebuilds cleanly afterwards.
func TestRebuildTimeout(t *testing.T) {
	for _, tc := range []struct {
		name           string
		variant        Variant
		funcs, workers int
		wantFragments  int
	}{
		{"pool", VariantMax, 8, 4, 0},
		{"one-worker", VariantMax, 8, 1, 0},
		{"one-fragment", VariantOne, 8, 4, 1},
	} {
		e, box, ref := variantFaultEngine(t, tc.variant, tc.funcs, tc.workers)
		if tc.wantFragments > 0 && len(e.Plan.Fragments) != tc.wantFragments {
			t.Fatalf("%s: %d fragments, want %d", tc.name, len(e.Plan.Fragments), tc.wantFragments)
		}
		inj := faultinject.New(5).
			SetStall(300 * time.Millisecond).
			Arm(faultinject.Rule{Site: "opt:*", Kind: faultinject.KindStall, Rate: 1, Times: 1})
		box.fn = inj.At
		e.opts.RebuildTimeout = 30 * time.Millisecond
		e.InvalidateCache()
		snap := snapEngine(e)

		t0 := time.Now()
		_, _, err := e.BuildAll()
		took := time.Since(t0)
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("%s: after %v, error %T: %v", tc.name, took, err, err)
		}
		if took >= 300*time.Millisecond {
			t.Fatalf("%s: timed-out rebuild returned after %v, not before the 300ms stall ended", tc.name, took)
		}
		if te.Limit != 30*time.Millisecond {
			t.Fatalf("%s: limit %v recorded", tc.name, te.Limit)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: timeout does not unwrap to DeadlineExceeded", tc.name)
		}
		if got := len(te.Compiled) + len(te.Pending) + len(te.Skipped); got != len(e.Plan.Fragments) {
			t.Fatalf("%s: accounting covers %d of %d fragments", tc.name, got, len(e.Plan.Fragments))
		}
		snap.requireUnchanged(t, e, "after timeout")

		// Recovery on the same engine: no deadline, and no stalls — the
		// one-shot rule is spent. box.fn stays as it is: the abandoned
		// worker still stalled in the timed-out build reads it when it wakes.
		e.opts.RebuildTimeout = 0
		if _, _, err := e.BuildAll(); err != nil {
			t.Fatalf("%s: recovery rebuild: %v", tc.name, err)
		}
		if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
			t.Fatalf("%s: recovered image wrong: main(7) = %d, %v, want %d", tc.name, r, rerr, ref)
		}
	}
}

// TestRebuildErrorUnwrapEmpty is the regression test for the Unwrap crash:
// an empty RebuildError must behave as a plain error, not panic, under both
// direct Unwrap and errors.Is/As traversal.
func TestRebuildErrorUnwrapEmpty(t *testing.T) {
	empty := &RebuildError{}
	if got := empty.Unwrap(); got != nil {
		t.Fatalf("empty Unwrap = %v, want nil", got)
	}
	if errors.Is(empty, context.DeadlineExceeded) {
		t.Fatal("empty RebuildError matched an unrelated error")
	}
	var fe FragError
	if errors.As(empty, &fe) {
		t.Fatal("empty RebuildError yielded a FragError")
	}
	if msg := empty.Error(); !strings.Contains(msg, "no fragment failures") {
		t.Fatalf("empty Error() = %q", msg)
	}

	// Non-empty: the chain reaches the first fragment's cause.
	cause := errors.New("boom")
	re := &RebuildError{Failed: []FragError{{FragID: 3, Stage: StageOpt, Err: cause}}}
	if !errors.Is(re, cause) {
		t.Fatal("non-empty RebuildError does not unwrap to its cause")
	}
	if !errors.As(re, &fe) || fe.FragID != 3 {
		t.Fatalf("errors.As yielded fragment %d, want 3", fe.FragID)
	}
}

// TestDeferredProbeChangeReattempt locks in the deferral re-attempt
// contract: when the degradation ladder exhausts every rung and serves the
// fragment's last-good object (probe change deferred), the fragment must
// stay scheduled so the next rebuild — run after the fault clears, with no
// new probe request — picks the deferred change back up and applies it.
func TestDeferredProbeChangeReattempt(t *testing.T) {
	box := &hookBox{}
	m := irtext.MustParse("m", manyFuncSrc(8))
	e, err := New(m, Options{
		Variant: VariantMax, Workers: 4,
		FaultHook:     box.at,
		ExtraBuiltins: []string{"__test_hit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatalf("clean build: %v", err)
	}
	ref, err := vmRun(e.Executable(), "main", 7)
	if err != nil {
		t.Fatal(err)
	}

	// Enable a probe on f3, with codegen broken: the rebuild must succeed
	// by deferring the change, serving f3's last-good (uninstrumented)
	// object.
	e.Manager.Add(&supProbe{fnName: "f3", id: 3})
	inj := faultinject.New(42).Arm(faultinject.Rule{Site: "codegen:module", Kind: faultinject.KindError, Rate: 1})
	box.fn = inj.At
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatalf("warm-cache codegen fault must defer, not fail: %v", err)
	}
	if st.Deferred != 1 {
		t.Fatalf("deferred = %d, want 1", st.Deferred)
	}
	if r, hits, err := runHits(e.Executable(), "main", 7); err != nil || r != ref || len(hits) != 0 {
		t.Fatalf("deferred image: main(7) = %d hits %v err %v, want %d with no hits", r, hits, err, ref)
	}
	if def := e.Snapshot().Deferred; len(def) != 1 {
		t.Fatalf("snapshot deferred = %v, want one fragment", def)
	}

	// Fault clears; a plain rebuild with no new probe requests must
	// re-attempt the deferred fragment and finally apply the probe.
	box.fn = nil
	_, st, err = e.BuildAll()
	if err != nil {
		t.Fatalf("recovery rebuild: %v", err)
	}
	if st.Deferred != 0 || len(st.Fragments) == 0 {
		t.Fatalf("recovery rebuild deferred %d over %d fragments, want a fresh compile", st.Deferred, len(st.Fragments))
	}
	if r, hits, err := runHits(e.Executable(), "main", 7); err != nil || r != ref || fmt.Sprint(hits) != "[3]" {
		t.Fatalf("recovered image: main(7) = %d hits %v err %v, want %d with hits [3]", r, hits, err, ref)
	}
	if def := e.Snapshot().Deferred; len(def) != 0 {
		t.Fatalf("deferral not cleared after recovery: %v", def)
	}

	// And the re-attempt queue must drain: one more rebuild is a no-op.
	_, st, err = e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Fragments) != 0 {
		t.Fatalf("steady-state rebuild recompiled %d fragments, want 0", len(st.Fragments))
	}
}

// sweepSig is what replaying one input must reproduce: the return value,
// the program output, whether it trapped, and how many times the sweep's
// probe fired.
type sweepSig struct {
	ret     int64
	out     string
	trapped bool
	hits    int
}

// replaySweep replays inputs on exe, counting __test_hit firings per input.
// An error other than a trap fails the test.
func replaySweep(t *testing.T, exe *link.Executable, inputs [][]byte) []sweepSig {
	t.Helper()
	mach := vm.New(exe)
	hits := 0
	mach.Env.Builtins["__test_hit"] = func(*rt.Env, []int64) (int64, error) { hits++; return 0, nil }
	sigs := make([]sweepSig, len(inputs))
	for i, in := range inputs {
		hits = 0
		ret, out, _, err := vm.RunProgram(mach, in)
		var trap *rt.TrapError
		if err != nil && !errors.As(err, &trap) {
			t.Errorf("replay input %d: %v", i, err)
		}
		sigs[i] = sweepSig{ret: ret, out: out, trapped: err != nil, hits: hits}
	}
	return sigs
}

// sameResults compares two replays without the probe firings: a deferred
// probe change serves last-good objects, which count by the old probe state.
func sameResults(a, b []sweepSig) bool {
	for i := range a {
		if a[i].ret != b[i].ret || a[i].out != b[i].out || a[i].trapped != b[i].trapped {
			return false
		}
	}
	return len(a) == len(b)
}

// TestFaultRateSweep is the pipeline arm of the fault sweep: every fault
// kind at several injection rates, armed at every site ("*"), over full
// rebuilds of suite programs. Each round toggles one counter probe, so
// consecutive images count differently, then runs InvalidateCache +
// BuildAll. Whatever a round's outcome, the two hard invariants hold:
//   - a failure is typed: a *TimeoutError (the stall kind's signature) or a
//     RebuildError/FragError that faultinject recognises as injected;
//   - the served image is right: after a failure it is the pre-round image,
//     after a success it replays the inputs exactly like the clean build of
//     the current probe set, and after a success that deferred a probe
//     change (last-good objects served) with the same results and output.
func TestFaultRateSweep(t *testing.T) {
	kinds := []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindStall}
	for pi, name := range []string{"json", "woff2"} {
		p, ok := progen.ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		m := p.Generate()
		for _, kind := range kinds {
			for _, rate := range []float64{0.05, 0.2, 1} {
				t.Run(fmt.Sprintf("%s/%s@%g", name, kind, rate), func(t *testing.T) {
					faultSweepCell(t, m, uint64(pi+1), faultinject.Rule{Site: "*", Kind: kind, Rate: rate})
				})
			}
		}
	}
}

// faultSweepCell runs one (program, kind, rate) cell of TestFaultRateSweep.
func faultSweepCell(t *testing.T, m *ir.Module, seed uint64, rule faultinject.Rule) {
	inputs := [][]byte{nil, {3}, []byte("fault sweep"), {0, 1, 2, 3, 4, 5, 250, 128, 66, 99}}
	const rounds = 4
	box := &hookBox{}
	e, err := New(m, Options{FaultHook: box.at, ExtraBuiltins: []string{"__test_hit"}})
	if err != nil {
		t.Fatal(err)
	}
	// Clean references for both probe states: ref[0] off, ref[1] on.
	var ref [2][]sweepSig
	exe, _, err := e.BuildAll()
	if err != nil {
		t.Fatalf("clean build: %v", err)
	}
	ref[0] = replaySweep(t, exe, inputs)
	id := e.Manager.Add(&supProbe{fnName: "fuzz_target", id: 1})
	if exe, _, err = e.BuildAll(); err != nil {
		t.Fatalf("clean build with probe: %v", err)
	}
	ref[1] = replaySweep(t, exe, inputs)
	if ref[1][0].hits == 0 {
		t.Fatal("probe never fires in the clean build")
	}

	inj := faultinject.New(seed).SetStall(5 * time.Millisecond).Arm(rule)
	box.fn = inj.At
	if rule.Kind == faultinject.KindStall {
		e.opts.RebuildTimeout = 100 * time.Millisecond
	}
	active := 1
	var ok, deferred, failed, timeouts int
	for r := 0; r < rounds; r++ {
		active ^= 1
		if err := e.Manager.SetActive(id, active == 1); err != nil {
			t.Fatal(err)
		}
		before := e.Executable()
		e.InvalidateCache()
		_, st, err := e.BuildAll()
		var te *TimeoutError
		var re *RebuildError
		var fe FragError
		switch {
		case err == nil && st.Deferred > 0:
			deferred++
			if got := replaySweep(t, e.Executable(), inputs); !sameResults(got, ref[active]) {
				t.Errorf("round %d: deferred image diverged from the clean build", r)
			}
			continue
		case err == nil:
			ok++
			if got := replaySweep(t, e.Executable(), inputs); !reflect.DeepEqual(got, ref[active]) {
				t.Errorf("round %d: image diverged from the clean build with probe state %d", r, active)
			}
			continue
		case errors.As(err, &te):
			timeouts++
		case errors.As(err, &re), errors.As(err, &fe):
			failed++
			if !faultinject.IsInjected(err) {
				t.Errorf("round %d: non-injected failure: %v", r, err)
			}
		default:
			t.Errorf("round %d: untyped failure %T: %v", r, err, err)
		}
		if e.Executable() != before {
			t.Errorf("round %d: failed rebuild replaced the served image", r)
		}
	}
	if inj.TotalInjected() == 0 {
		t.Error("no faults injected")
	}
	t.Logf("%d ok, %d deferred, %d failed, %d timed out; %d faults injected",
		ok, deferred, failed, timeouts, inj.TotalInjected())
}
