package core

import (
	"fmt"
	"os"
	"sync"
	"time"

	"odin/internal/ir"
)

// VerifyMode selects how much IR verification the engine runs during
// rebuilds. It is a three-tier knob:
//
//   - VerifyOff: no rebuild-path verification at all. The zero-overhead arm;
//     input modules are still checked once at engine construction.
//   - VerifyBoundaries (the default): strict verification (ir.VerifyStrict —
//     dominance-based SSA and full type checking) of the instrumented
//     temporary IR and of every fragment module after its optimization
//     pipeline. Per-function results are remembered by ir.FingerprintSym
//     content hash (verifiedTable), so a steady-state probe toggle loop
//     re-verifies only the functions that actually changed.
//   - VerifyAll: everything above plus strict verification after every
//     optimizer pass; a violation becomes a *opt.PassError naming the
//     offending pass (with a before/after IR diff) and flows through the
//     degradation ladder and supervisor quarantine like an injected fault.
type VerifyMode int

const (
	// VerifyDefault resolves through the ODIN_VERIFY environment variable
	// ("off", "boundaries", "all"); unset or unrecognized means
	// VerifyBoundaries.
	VerifyDefault VerifyMode = iota
	VerifyOff
	VerifyBoundaries
	VerifyAll
)

// String returns the flag/env spelling of the mode.
func (v VerifyMode) String() string {
	switch v {
	case VerifyOff:
		return "off"
	case VerifyBoundaries:
		return "boundaries"
	case VerifyAll:
		return "all"
	}
	return "default"
}

// ParseVerifyMode parses a -verify flag or ODIN_VERIFY value. Empty input
// returns VerifyDefault; unrecognized input returns VerifyDefault with
// ok=false so flag parsers can reject it while env resolution stays lenient.
func ParseVerifyMode(s string) (VerifyMode, bool) {
	switch s {
	case "":
		return VerifyDefault, true
	case "off", "none":
		return VerifyOff, true
	case "boundaries", "boundary", "basic":
		return VerifyBoundaries, true
	case "all", "strict", "each":
		return VerifyAll, true
	}
	return VerifyDefault, false
}

// resolve turns VerifyDefault into a concrete tier using ODIN_VERIFY, with
// VerifyBoundaries as the final default.
func (v VerifyMode) resolve() VerifyMode {
	if v != VerifyDefault {
		return v
	}
	if m, ok := ParseVerifyMode(os.Getenv("ODIN_VERIFY")); ok && m != VerifyDefault {
		return m
	}
	return VerifyBoundaries
}

// verifiedTable is the engine's memory of strict verification: for each
// function name, the ir.FingerprintSym hashes of the two most recent bodies
// VerifyFuncStrict accepted, newest first. Two, because a probe toggle
// alternates a function between exactly two IR states (instrumented and
// pristine): one slot would miss on every toggle, two make the steady-state
// toggle loop a pure hit. The newest generation travels in the state
// snapshot (EngineState.VerifiedFuncs), so a restarted engine skips
// re-verifying unchanged functions too. A zero hash marks an empty slot and
// is never recorded or matched — a body that hashes to zero is just verified
// every time.
type verifiedTable struct {
	mu           sync.Mutex
	clean        map[string][2]uint64
	hits, misses uint64
}

// has reports whether the named function was verified clean at hash, moving
// a match to the newest slot so the snapshot carries the current body.
// Callers hold mu.
func (v *verifiedTable) has(name string, hash uint64) bool {
	g := v.clean[name]
	switch {
	case hash == 0:
		return false
	case g[0] == hash:
		return true
	case g[1] == hash:
		v.clean[name] = [2]uint64{hash, g[0]}
		return true
	}
	return false
}

// record notes that the named function verified clean at hash, evicting the
// older of its two generations. Callers hold mu, and record only a hash that
// has just missed.
func (v *verifiedTable) record(name string, hash uint64) {
	if hash != 0 {
		v.clean[name] = [2]uint64{hash, v.clean[name][0]}
	}
}

// newest returns the newest verified-clean hash per function — the
// snapshot's VerifiedFuncs — or nil when nothing is recorded.
func (v *verifiedTable) newest() map[string]uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.clean) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(v.clean))
	for name, g := range v.clean {
		out[name] = g[0]
	}
	return out
}

// verifyTemp strictly verifies the instrumented temporary IR at the
// fragment-boundary tier: module-level symbol invariants always, then every
// function whose FingerprintSym hash the verified-clean table has not
// already proven. In the steady-state toggle loop that is nothing at all.
func (e *Engine) verifyTemp(temp *ir.Module, th tempHashes) error {
	if e.opts.Verify == VerifyOff {
		return nil
	}
	start := time.Now()
	checks := 0
	defer func() {
		e.metrics.verifyDur.Observe(time.Since(start))
		e.metrics.verifyChecks.Add(uint64(checks + 1))
	}()
	if err := ir.VerifySymbols(temp); err != nil {
		return err
	}
	v := &e.verified
	var todo []*ir.Func
	hits := uint64(0)
	v.mu.Lock()
	for _, f := range temp.Funcs {
		if f.IsDecl() {
			continue
		}
		if v.has(f.Name, th[f.Name]) {
			hits++
		} else {
			todo = append(todo, f)
		}
	}
	v.hits += hits
	v.misses += uint64(len(todo))
	v.mu.Unlock()
	e.metrics.verifyCacheHits.Add(hits)
	var err error
	for _, f := range todo {
		if err = ir.VerifyFuncStrict(temp, f); err != nil {
			break
		}
		checks++
	}
	if checks > 0 {
		// Record what was proven, also ahead of a violation: those bodies
		// need no second look when the rebuild is retried.
		v.mu.Lock()
		for _, f := range todo[:checks] {
			v.record(f.Name, th[f.Name])
		}
		v.mu.Unlock()
	}
	return err
}

// verifyCompiled strictly verifies a fragment module after its optimization
// pipeline ran (the second boundary of the boundaries tier). Optimized IR
// has no precomputed content hashes, so this is an uncached full check of
// the — typically small — fragment module.
func (e *Engine) verifyCompiled(fm *ir.Module) error {
	if e.opts.Verify == VerifyOff {
		return nil
	}
	start := time.Now()
	err := ir.VerifyStrict(fm)
	e.metrics.verifyDur.Observe(time.Since(start))
	e.metrics.verifyChecks.Inc()
	if err != nil {
		return fmt.Errorf("after optimization: %w", err)
	}
	return nil
}

// VerifyCacheStats returns the verified-clean table's cumulative hit and miss
// counts — how often a rebuild skipped re-verifying a function whose content
// hash was already proven clean. Tests read it to check the boundaries
// tier's cache behaviour within a session and across a warm restart.
func (e *Engine) VerifyCacheStats() (hits, misses uint64) {
	e.verified.mu.Lock()
	defer e.verified.mu.Unlock()
	return e.verified.hits, e.verified.misses
}

// verifyEach reports whether fragment compiles should run the
// after-every-pass tier inside the optimizer.
func (e *Engine) verifyEach() bool { return e.opts.Verify == VerifyAll }

// onPassVerify is the opt.Options.OnVerify callback: it feeds the per-pass
// verification telemetry (checks, time, violations by pass). It is nil-safe
// against a disabled registry through the metric handles themselves.
func (e *Engine) onPassVerify(pass string, dur time.Duration, ok bool) {
	e.metrics.verifyChecks.Inc()
	e.metrics.verifyDur.Observe(dur)
	if !ok {
		// Violations are rare (they mean a miscompiling pass); the labeled
		// counter is looked up on demand rather than pre-registered for
		// every pass name.
		e.metrics.verifyViolation(pass).Inc()
	}
}
