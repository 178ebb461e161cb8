// Package faultinject provides a deterministic, seeded, site-addressable
// fault injector for the rebuild pipeline. It is the test substrate for the
// fault-tolerant rebuild supervisor: opt, codegen, and link expose plain
// function-valued hooks (no build tags) that an Injector can arm to raise
// errors, panics, or stalls at named sites, and internal/core's
// TestFaultRateSweep and TestPersistFaultSweep sweep injection rates through it.
//
// Site names follow "<stage>:<point>":
//
//	instrument:<target>  before applying a probe targeting <target> (one
//	                     call per self-applying probe per rebuild)
//	opt:<pass>           before each optimizer pass run (constprop, cse, ...)
//	verify:<pass>        before the after-every-pass strict IR verification
//	                     of <pass>'s output (VerifyAll tier only); a hook
//	                     that corrupts the module here is caught by the
//	                     verifier and attributed to <pass>
//	codegen:module       before lowering a fragment module
//	codegen:<func>       before lowering one function of a fragment module
//	link:incremental     before an incremental relink
//	link:full            before a from-scratch link
//	supervisor:commit    before every supervisor rebuild schedules: the
//	                     generation's, its control rebuild's, and each
//	                     bisection subset's (fails the rebuild without
//	                     touching engine state — breaker and bisection
//	                     testing)
//	persist:open         before opening the persistent artifact store
//	persist:load         before each persistent-cache load
//	persist:store        before each atomic publish to the store
//	persist:evict        before evicting a corrupt or skewed entry
//	persist:snapshot-save before writing an engine state snapshot
//	persist:snapshot-load before reading an engine state snapshot
//	persist:log-open     before opening an append-only log (the serve
//	                     probe journal)
//	persist:log-append   before each log append
//	persist:log-close    in place of the closing flush of a log (the file
//	                     is still closed)
//
// Every persist:* fault degrades to a counted cold compile or fallback —
// the persistence layer's verify-or-degrade contract — so a Rule with
// Site: "persist:*" must never change executable output or crash.
//
// Decisions are deterministic: each site keeps a call counter, and the
// decision for the k-th call at a site is a pure function of (seed, site, k).
// Interleaving across sites therefore cannot change which calls inject; with
// a single compile worker the whole schedule of faults is reproducible
// bit-for-bit.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind is the failure mode a rule injects.
type Kind string

const (
	// KindError makes the hook return an *InjectedError; the pipeline
	// surfaces it as an ordinary stage failure.
	KindError Kind = "error"
	// KindPanic makes the hook panic with an *InjectedError; the rebuild
	// supervisor's panic isolation must recover it.
	KindPanic Kind = "panic"
	// KindStall makes the hook sleep for the injector's stall duration
	// before returning nil; rebuild deadlines must bound it.
	KindStall Kind = "stall"
)

// InjectedError identifies a deliberately injected fault. It is both the
// error returned for KindError and the panic value for KindPanic, so tests
// and the experiment harness can tell injected faults from real bugs.
type InjectedError struct {
	Site string
	Kind Kind
	// Seq is the 1-based per-site call number that triggered the rule.
	Seq int
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: %s fault at %s (call %d)", e.Kind, e.Site, e.Seq)
}

// IsInjected reports whether v (an error or a recovered panic value) is an
// injected fault.
func IsInjected(v any) bool {
	switch x := v.(type) {
	case *InjectedError:
		return true
	case error:
		var ie *InjectedError
		return errors.As(x, &ie)
	}
	return false
}

// Rule arms one fault: at sites matching Site, inject Kind with probability
// Rate per call, at most Times times (0 = unlimited).
type Rule struct {
	// Site selects injection points: an exact site name, a "prefix*"
	// pattern (e.g. "opt:*"), or "*" for every site.
	Site string
	Kind Kind
	// Rate is the per-call injection probability in [0, 1]; values >= 1
	// inject on every matching call.
	Rate float64
	// Times bounds how many faults this rule injects in total (0 = no
	// bound). Times=1 models a transient fault that a retry survives.
	Times int

	fired int
}

func (r *Rule) matches(site string) bool {
	if r.Site == "*" || r.Site == site {
		return true
	}
	if p, ok := strings.CutSuffix(r.Site, "*"); ok {
		return strings.HasPrefix(site, p)
	}
	return false
}

// Injector is a concurrency-safe fault source. The zero value is unusable;
// construct with New.
type Injector struct {
	mu    sync.Mutex
	seed  uint64
	rules []*Rule
	stall time.Duration
	calls map[string]int
	hits  map[string]int
}

// New returns an injector with no armed rules: every hook call passes
// through until Arm is called.
func New(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		stall: 2 * time.Millisecond,
		calls: map[string]int{},
		hits:  map[string]int{},
	}
}

// Arm adds a rule. Rules are consulted in insertion order; the first
// matching rule that fires decides the call's fate.
func (in *Injector) Arm(r Rule) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, &r)
	return in
}

// SetStall sets how long KindStall faults block (default 2ms).
func (in *Injector) SetStall(d time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stall = d
	return in
}

// At is the hook entry point: pipeline stages call it with their site name.
// It returns an *InjectedError (KindError), panics with one (KindPanic),
// sleeps (KindStall), or returns nil. Its signature matches the FaultHook
// fields of core.Options, opt.Options, codegen.Options, and link.Incremental.
func (in *Injector) At(site string) error {
	in.mu.Lock()
	in.calls[site]++
	seq := in.calls[site]
	var fire *Rule
	for _, r := range in.rules {
		if !r.matches(site) || (r.Times > 0 && r.fired >= r.Times) {
			continue
		}
		if decide(in.seed, site, seq) < r.Rate {
			r.fired++
			in.hits[site]++
			fire = r
			break
		}
	}
	stall := in.stall
	in.mu.Unlock()
	if fire == nil {
		return nil
	}
	ie := &InjectedError{Site: site, Kind: fire.Kind, Seq: seq}
	switch fire.Kind {
	case KindPanic:
		panic(ie)
	case KindStall:
		time.Sleep(stall)
		return nil
	default:
		return ie
	}
}

// decide maps (seed, site, seq) to a uniform value in [0, 1).
func decide(seed uint64, site string, seq int) float64 {
	h := seed ^ 0x9E3779B97F4A7C15
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * 0x100000001B3
	}
	h ^= uint64(seq) * 0xBF58476D1CE4E5B9
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// Calls returns a copy of the per-site hook call counts.
func (in *Injector) Calls() map[string]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return copyCounts(in.calls)
}

// TotalInjected returns how many faults have fired across all sites.
func (in *Injector) TotalInjected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, c := range in.hits {
		n += c
	}
	return n
}

// Sites returns the sorted site names the injector has seen.
func (in *Injector) Sites() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.calls))
	for s := range in.calls {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func copyCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
