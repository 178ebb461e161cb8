// Package opt implements the optimization pipeline: a pass manager and the
// passes whose interplay with instrumentation the paper studies.
//
// Two features matter beyond ordinary optimization:
//
//  1. Passes only fire when the symbols they need are visible in the module
//     being compiled. Interprocedural passes (inlining, dead-argument
//     elimination) need callee/caller definitions; instruction combining
//     needs referenced constants. Compiling a fragment that lacks those
//     symbols silently loses the optimization — exactly the effect Odin's
//     partitioner must avoid (paper §2.3, Figure 4).
//
//  2. A trial run records which symbol pairs each interprocedural
//     optimization required ("Bond") and which constants local optimization
//     inspected ("Copy-on-use") into a Report. Odin's partitioner consumes
//     the report to build fragments that preserve every optimization
//     (paper §3.2).
package opt

import (
	"sort"
	"time"

	"odin/internal/ir"
)

// Report accumulates the optimization-dependency log of a trial run.
type Report struct {
	// Bonds lists symbol pairs that interprocedural optimization must see
	// together (callee/caller for inlining and dead-argument elimination).
	Bonds [][2]string
	// CopyUses lists (constant symbol, using function) pairs local
	// optimization needed; the partitioner clones such constants into the
	// user's fragment.
	CopyUses [][2]string
}

// AddBond records that a and b must be compiled together.
func (r *Report) AddBond(a, b string) {
	if r == nil || a == b {
		return
	}
	r.Bonds = append(r.Bonds, [2]string{a, b})
}

// AddCopyUse records that function user inspected constant c.
func (r *Report) AddCopyUse(c, user string) {
	if r == nil {
		return
	}
	r.CopyUses = append(r.CopyUses, [2]string{c, user})
}

// Dedup sorts and deduplicates the report, making it deterministic.
func (r *Report) Dedup() {
	r.Bonds = dedupPairs(r.Bonds)
	r.CopyUses = dedupPairs(r.CopyUses)
}

func dedupPairs(ps [][2]string) [][2]string {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// Options configures a pipeline run.
type Options struct {
	// Level 0 disables optimization entirely; 1 runs local passes only;
	// 2 (default for experiments) adds interprocedural passes.
	Level int
	// Report, when non-nil, receives the dependency log.
	Report *Report
	// MaxInlineInstrs overrides the inliner size threshold (0 = default).
	MaxInlineInstrs int
	// Quarantine names passes the pipeline must skip. The rebuild
	// supervisor quarantines a pass for a fragment after it caused that
	// fragment's compile to fail, so later rebuilds degrade around it
	// instead of re-hitting the same fault.
	Quarantine map[string]bool
	// Trace, when non-nil, records the pass currently running. It stays
	// set when a pass panics, which is how the rebuild supervisor
	// attributes a recovered panic to the pass that raised it.
	Trace *PassTrace
	// FaultHook, when non-nil, is called before each pass with site
	// "opt:<pass>". A returned error aborts the pipeline as a *PassError;
	// the faultinject package provides deterministic implementations.
	FaultHook func(site string) error
	// OnPass, when non-nil, is called after each pass that ran (quarantined
	// passes are skipped, not reported) with the pass name, its start time
	// and duration, and whether it changed the module. Pass timing is only
	// taken when OnPass is set. The telemetry tracer uses it to attach
	// per-pass spans to a fragment's opt stage.
	OnPass func(pass string, start time.Time, dur time.Duration, changed bool)
	// VerifyEach enables the strictest verification tier: after every pass
	// that ran, the module is re-verified with ir.VerifyStrict, and a
	// violation aborts the pipeline as a *PassError naming the offending
	// pass, with a bounded before/after IR diff in the error text. This
	// turns a silent miscompile into an attributed, degradable fault that
	// flows through the same ladder and quarantine machinery as injected
	// ones.
	VerifyEach bool
	// OnVerify, when non-nil and VerifyEach is set, is called after each
	// per-pass verification with the pass name, the time the check took,
	// and whether the module verified clean. Telemetry hangs the
	// odin_verify_* families off it.
	OnVerify func(pass string, dur time.Duration, ok bool)

	// passBase and passOff implement cheap per-pass timing: passBase is
	// read once, and each pass boundary is a monotonic offset from it
	// (time.Since costs about half a time.Now on machines without a fast
	// clock path). The end of one pass doubles as the start of the next;
	// see runPass.
	passBase time.Time
	passOff  time.Duration
}

// PassTrace exposes which pass the pipeline is currently running; see
// Options.Trace.
type PassTrace struct{ Pass string }

// PassError attributes a pipeline failure to a named pass.
type PassError struct {
	Pass string
	Err  error
}

func (e *PassError) Error() string { return "opt: " + e.Pass + ": " + e.Err.Error() }

func (e *PassError) Unwrap() error { return e.Err }

// Pass is one transformation over a module. Run returns whether anything
// changed.
type Pass interface {
	Name() string
	Run(m *ir.Module, o *Options) bool
}

// localPasses returns the intraprocedural pass set.
func localPasses() []Pass {
	return []Pass{ConstProp{}, InstCombine{}, CSE{}, SimplifyCFG{}, DCE{}}
}

// Optimize runs the full pipeline at o.Level over the module, mimicking an
// O2-style loop: local cleanup, interprocedural transforms, local cleanup,
// global DCE. The module is verified before and after in debug builds via
// the caller; Optimize itself only transforms. Without a FaultHook the
// pipeline cannot fail; a hook error escaping through this entry point is a
// programming error (fault-injecting callers must use OptimizeChecked).
func Optimize(m *ir.Module, o *Options) {
	if err := OptimizeChecked(m, o); err != nil {
		panic(err)
	}
}

// OptimizeChecked is Optimize with failure surfacing: a FaultHook error
// aborts the pipeline and is returned as a *PassError naming the pass whose
// site raised it. The module may be left partially transformed; callers
// retrying must start from a fresh copy.
func OptimizeChecked(m *ir.Module, o *Options) error {
	if o == nil {
		o = &Options{Level: 2}
	}
	if o.Level <= 0 {
		return nil
	}
	if err := runToFixpoint(m, o, localPasses(), 8); err != nil {
		return err
	}
	if o.Level >= 2 {
		// Fully unroll small constant-trip loops; each round may expose
		// folding that enables further unrolling.
		for i := 0; i < 4; i++ {
			changed, err := runPass(m, o, LoopUnroll{})
			if err != nil {
				return err
			}
			if !changed {
				break
			}
			if err := runToFixpoint(m, o, localPasses(), 8); err != nil {
				return err
			}
		}
		// Interprocedural round. Inlining exposes local opportunities,
		// so alternate with local cleanup.
		for i := 0; i < 4; i++ {
			changed, err := runPass(m, o, Inline{})
			if err != nil {
				return err
			}
			dae, err := runPass(m, o, DeadArgElim{})
			if err != nil {
				return err
			}
			changed = dae || changed
			if err := runToFixpoint(m, o, localPasses(), 8); err != nil {
				return err
			}
			if !changed {
				break
			}
		}
		if _, err := runPass(m, o, GlobalDCE{}); err != nil {
			return err
		}
	}
	return nil
}

func runToFixpoint(m *ir.Module, o *Options, passes []Pass, maxIters int) error {
	for i := 0; i < maxIters; i++ {
		changed := false
		for _, p := range passes {
			c, err := runPass(m, o, p)
			if err != nil {
				return err
			}
			if c {
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// runPass executes one pass, honoring quarantine, pass tracing, and fault
// injection. Trace.Pass is deliberately NOT cleared when Run panics: the
// recovering caller reads it to attribute the panic.
func runPass(m *ir.Module, o *Options, p Pass) (bool, error) {
	name := p.Name()
	if o.Quarantine[name] {
		return false, nil
	}
	if o.Trace != nil {
		// Set before the hook, so an injected panic is attributed to the
		// pass whose site raised it, exactly like a panic from Run itself.
		o.Trace.Pass = name
	}
	if o.FaultHook != nil {
		if err := o.FaultHook("opt:" + name); err != nil {
			return false, &PassError{Pass: name, Err: err}
		}
	}
	var before string
	if o.VerifyEach {
		// The pre-pass snapshot feeds the before/after diff when this pass
		// breaks an invariant. Print cost is only paid at the strictest tier.
		before = ir.Print(m)
	}
	var start time.Duration
	if o.OnPass != nil {
		if o.passBase.IsZero() {
			o.passBase = time.Now()
		}
		start = o.passOff
	}
	changed := p.Run(m, o)
	if o.OnPass != nil {
		// One monotonic read per pass: the end offset of this pass is the
		// start offset of the next. The pipeline's own loop control between
		// passes is nanoseconds, so the misattribution is negligible.
		off := time.Since(o.passBase)
		o.OnPass(name, o.passBase.Add(start), off-start, changed)
		o.passOff = off
	}
	if o.VerifyEach {
		// Verify while Trace.Pass is still set, so a verifier crash on
		// badly mangled IR is attributed like a pass panic.
		if err := verifyAfterPass(m, o, name, before); err != nil {
			return changed, err
		}
	}
	if o.Trace != nil {
		o.Trace.Pass = ""
	}
	return changed, nil
}
