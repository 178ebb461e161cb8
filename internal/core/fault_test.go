package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"odin/internal/faultinject"
	"odin/internal/irtext"
	"odin/internal/link"
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
	box := &hookBox{}
	m := irtext.MustParse("m", manyFuncSrc(n))
	e, err := New(m, Options{Variant: VariantMax, Workers: workers, FaultHook: box.at})
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
// on both the parallel pool and the serial fast path. The rebuild returns a
// *TimeoutError that unwraps to context.DeadlineExceeded, the cache and
// executable are untouched, and the engine rebuilds cleanly afterwards.
func TestRebuildTimeout(t *testing.T) {
	for _, workers := range []int{4, 1} {
		e, box, ref := faultEngine(t, 8, workers)
		inj := faultinject.New(5).
			SetStall(150 * time.Millisecond).
			Arm(faultinject.Rule{Site: "opt:*", Kind: faultinject.KindStall, Rate: 1, Times: 1})
		box.fn = inj.At
		e.opts.RebuildTimeout = 30 * time.Millisecond
		e.InvalidateCache()
		snap := snapEngine(e)

		_, _, err := e.BuildAll()
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: error %T: %v", workers, err, err)
		}
		if te.Limit != 30*time.Millisecond {
			t.Fatalf("workers=%d: limit %v recorded", workers, te.Limit)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: timeout does not unwrap to DeadlineExceeded", workers)
		}
		if got := len(te.Compiled) + len(te.Pending) + len(te.Skipped); got != len(e.Plan.Fragments) {
			t.Fatalf("workers=%d: accounting covers %d of %d fragments", workers, got, len(e.Plan.Fragments))
		}
		snap.requireUnchanged(t, e, "after timeout")

		// Recovery on the same engine: no deadline, no stalls.
		box.fn = nil
		e.opts.RebuildTimeout = 0
		if _, _, err := e.BuildAll(); err != nil {
			t.Fatalf("workers=%d: recovery rebuild: %v", workers, err)
		}
		if r, rerr := vmRun(e.Executable(), "main", 7); rerr != nil || r != ref {
			t.Fatalf("workers=%d: recovered image wrong: main(7) = %d, %v, want %d", workers, r, rerr, ref)
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
