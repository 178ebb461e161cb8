package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"odin/internal/codegen"
	"odin/internal/ir"
	"odin/internal/obj"
	"odin/internal/opt"
	"odin/internal/telemetry"
)

// Pipeline stage names recorded on FragError.
const (
	StageHook        = "hook"
	StageInstrument  = "instrument"
	StageMaterialize = "materialize"
	StageOpt         = "opt"
	StageCodegen     = "codegen"
	StageLink        = "link"
)

// FragError is one fragment's compilation failure, annotated with the
// pipeline stage that failed, the optimizer pass when attributable, and the
// stack when the failure was a recovered panic. A panicking pass therefore
// fails one fragment — with full provenance — instead of the process.
type FragError struct {
	// FragID is the failing fragment; -1 for the whole-image link stage.
	FragID int
	Stage  string
	// Pass names the optimizer pass that failed, when the failure could
	// be attributed to one.
	Pass string
	// Stack is the goroutine stack captured when a panic was recovered;
	// empty for ordinary errors.
	Stack []byte
	Err   error
}

func (fe FragError) Error() string {
	where := fmt.Sprintf("fragment %d", fe.FragID)
	if fe.FragID < 0 {
		where = "image"
	}
	if fe.Stage != "" {
		where += " " + fe.Stage
	}
	if fe.Pass != "" {
		where += ":" + fe.Pass
	}
	return fmt.Sprintf("%s: %v", where, fe.Err)
}

func (fe FragError) Unwrap() error { return fe.Err }

// Panicked reports whether the failure was a recovered panic.
func (fe FragError) Panicked() bool { return len(fe.Stack) > 0 }

// panicError carries a recovered panic value and its stack as an error.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

func (p *panicError) Unwrap() error {
	if err, ok := p.val.(error); ok {
		return err
	}
	return nil
}

// capture invokes fn with panic isolation: a panic becomes a *panicError
// carrying the stack, so a buggy pass or back end fails one fragment (or
// one link) instead of the process.
func capture(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	return fn()
}

// stageError normalizes a stage failure into a FragError, pulling the pass
// name out of opt pass errors and the stack out of recovered panics.
func stageError(id int, stage, pass string, err error) FragError {
	fe := FragError{FragID: id, Stage: stage, Pass: pass, Err: err}
	var pe *opt.PassError
	if errors.As(err, &pe) {
		fe.Pass = pe.Pass
	}
	var pnc *panicError
	if errors.As(err, &pnc) {
		fe.Stack = pnc.stack
	}
	return fe
}

// RebuildError reports a failed recompilation with full partial-progress
// accounting: every fragment whose compilation ran and failed is named (not
// just the first), and the machine-code cache is guaranteed untouched — a
// failed rebuild never leaves it half-updated.
type RebuildError struct {
	// Failed lists every fragment that compiled and failed, by fragment ID.
	Failed []FragError
	// Compiled lists fragments that compiled successfully before the pool
	// was cancelled; their results were staged and then discarded.
	Compiled []int
	// Skipped lists fragments the cancellation prevented from starting.
	Skipped []int
}

func (re *RebuildError) Error() string {
	if len(re.Failed) == 0 {
		return "core: recompilation failed (no fragment failures recorded)"
	}
	ids := make([]string, len(re.Failed))
	for i, fe := range re.Failed {
		ids[i] = fmt.Sprint(fe.FragID)
	}
	msg := fmt.Sprintf("core: recompilation failed for fragment(s) %s", strings.Join(ids, ", "))
	if len(re.Skipped) > 0 {
		msg += fmt.Sprintf(" (%d compiled, %d skipped)", len(re.Compiled), len(re.Skipped))
	}
	return msg + ": " + re.Failed[0].Err.Error()
}

// Unwrap returns the first fragment failure, preserving errors.As/Is chains
// through the pool, or nil when no fragment failures were recorded.
func (re *RebuildError) Unwrap() error {
	if len(re.Failed) == 0 {
		return nil
	}
	return re.Failed[0]
}

// TimeoutError reports that Options.RebuildTimeout expired before the
// rebuild completed. The machine-code cache and current executable are
// untouched; fragment compiles still in flight when the deadline fired are
// abandoned and finish harmlessly in the background (they only read engine
// state, under lock, and their results are discarded).
type TimeoutError struct {
	Limit time.Duration
	// Compiled lists fragments that finished successfully before the
	// deadline; their staged results were discarded.
	Compiled []int
	// Pending lists fragments that were dispatched but whose outcome was
	// not collected before the deadline.
	Pending []int
	// Skipped lists fragments never dispatched.
	Skipped []int
}

func (te *TimeoutError) Error() string {
	return fmt.Sprintf("core: rebuild deadline %v exceeded (%d compiled, %d in flight, %d not started)",
		te.Limit, len(te.Compiled), len(te.Pending), len(te.Skipped))
}

// Unwrap ties the timeout into context error chains
// (errors.Is(err, context.DeadlineExceeded) holds).
func (te *TimeoutError) Unwrap() error { return context.DeadlineExceeded }

// fragOut is one fragment's staged compilation result. Nothing is committed
// to the engine cache until every fragment of the schedule has one with a
// nil error AND the relink of the staged image succeeds.
type fragOut struct {
	fc   FragCompile
	obj  *obj.Object
	hash uint64
	// deferred marks the degradation ladder's last rung: obj is the
	// fragment's last-good cached object, the probe change was not
	// applied, and the stored fingerprint must not be advanced.
	deferred bool
	err      error
	ran      bool // false when cancellation skipped the fragment entirely
}

// compileFragments runs materialize→optimize→codegen for every scheduled
// fragment on a bounded worker pool. Fragments are independent compilation
// units, so the pipeline is embarrassingly parallel; results come back
// ordered by fragment ID regardless of completion order, the first hard
// error cancels the remaining work, and the context deadline (RebuildTimeout)
// abandons the pool entirely. All shared engine state is read under the
// engine lock, so abandoned workers cannot race later rebuilds. comp, when
// tracing is on, is the rebuild's compile-phase span; each fragment hangs
// its own span (with stage children) under it.
func (e *Engine) compileFragments(ctx context.Context, temp *ir.Module, th tempHashes, frags []int, comp *telemetry.Span) ([]fragOut, int, error) {
	workers := e.opts.workers()
	n := len(frags)
	if n == 0 {
		return nil, workers, nil
	}
	if workers > n {
		workers = n
	}

	if workers == 1 && e.opts.RebuildTimeout == 0 {
		// Serial fast path: no goroutines, deterministic early stop. A
		// rebuild with a deadline takes the pool even for one fragment, so
		// the deadline can abandon a compile in flight.
		outs := make([]fragOut, n)
		for i, id := range frags {
			outs[i] = e.compileOne(id, temp, th, comp)
			if outs[i].err != nil {
				break
			}
		}
		return collectPool(frags, outs, workers)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type slot struct {
		i   int
		out fragOut
	}
	jobs := make(chan int)
	// results is buffered to n so a worker finishing after the deadline
	// abandoned the pool can still deposit its result and exit.
	results := make(chan slot, n)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				if cctx.Err() != nil {
					results <- slot{i: i} // cancelled after dispatch: ran=false
					continue
				}
				out := e.compileOne(frags[i], temp, th, comp)
				if out.err != nil {
					cancel() // first hard error wins: stop handing out work
				}
				results <- slot{i: i, out: out}
			}
		}()
	}

	outs := make([]fragOut, n)
	got := make([]bool, n)
	dispatched, completed := 0, 0
	for {
		jobCh := chan int(nil)
		if dispatched < n && cctx.Err() == nil {
			jobCh = jobs
		}
		if jobCh == nil && completed == dispatched {
			break
		}
		select {
		case jobCh <- dispatched:
			dispatched++
		case s := <-results:
			outs[s.i] = s.out
			got[s.i] = true
			completed++
		case <-ctx.Done():
			// Deadline: abandon the pool. Workers drain the closed jobs
			// channel and park any late results in the buffered channel;
			// nothing reads outs concurrently after this return.
			close(jobs)
			return nil, workers, e.timeoutError(frags, outs, got)
		}
	}
	close(jobs)
	return collectPool(frags, outs, workers)
}

// timeoutError classifies every fragment of an abandoned schedule: results
// collected before the deadline split into compiled and skipped; everything
// else — in flight, errored-at-the-wire, or never dispatched — is pending.
func (e *Engine) timeoutError(frags []int, outs []fragOut, got []bool) *TimeoutError {
	te := &TimeoutError{Limit: e.opts.RebuildTimeout}
	for i, id := range frags {
		switch {
		case got[i] && outs[i].ran && outs[i].err == nil:
			te.Compiled = append(te.Compiled, id)
		case got[i] && !outs[i].ran:
			te.Skipped = append(te.Skipped, id)
		default:
			te.Pending = append(te.Pending, id)
		}
	}
	return te
}

// collectPool turns raw worker slots into either the full success result or
// a RebuildError naming every fragment that actually failed.
func collectPool(frags []int, outs []fragOut, workers int) ([]fragOut, int, error) {
	var rerr *RebuildError
	for i := range outs {
		if outs[i].err != nil {
			if rerr == nil {
				rerr = &RebuildError{}
			}
			rerr.Failed = append(rerr.Failed, asFragError(frags[i], outs[i].err))
		}
	}
	if rerr == nil {
		return outs, workers, nil
	}
	for i := range outs {
		switch {
		case outs[i].err != nil:
		case outs[i].ran:
			rerr.Compiled = append(rerr.Compiled, frags[i])
		default:
			rerr.Skipped = append(rerr.Skipped, frags[i])
		}
	}
	return nil, workers, rerr
}

// asFragError normalizes an error into a FragError for fragment id.
func asFragError(id int, err error) FragError {
	var fe FragError
	if errors.As(err, &fe) {
		return fe
	}
	return FragError{FragID: id, Err: err}
}

// optLevel is the optimization level every fragment compiles at first.
// Snapshots record it and persistKey folds it; both stay so that existing
// cache dirs and snapshots keep matching.
const optLevel = 2

// ladderLevels is the degradation ladder: optLevel first, then -O1, then
// -O0. The last rung after these — falling back to the fragment's last-good
// cached object — is handled by degradeToCache.
var ladderLevels = [...]int{optLevel, 1, 0}

// fragmentHash folds the part hashes of a fragment's members and clones (in
// plan order) into the fragment-level cache key. It replaces hashing the
// materialized module's full text: the fold covers exactly the definitions
// materialize would clone, so it changes when and only when the fragment
// module would, and a fragment-level cache hit no longer pays materialize.
func fragmentHash(frag *Fragment, th tempHashes) uint64 {
	h := ir.HashSeed
	for _, s := range frag.Members {
		if v, ok := th[s]; ok {
			h = ir.HashFold(h, v)
		}
	}
	for _, s := range frag.Clones {
		if v, ok := th[s]; ok {
			h = ir.HashFold(h, v)
		}
	}
	return h
}

// countMemberFuncs counts the fragment's defined member functions
// (FragCompile.FuncsTotal).
func countMemberFuncs(frag *Fragment, temp *ir.Module) int {
	n := 0
	for _, s := range frag.Members {
		if f := temp.LookupFunc(s); f != nil && !f.IsDecl() {
			n++
		}
	}
	return n
}

// compileOne runs the per-fragment pipeline of Figure 7 under the fault
// supervisor. The fragment's cache key is folded from per-symbol
// fingerprints of the instrumented temporary IR (th), so a fragment-level
// hit skips even materialize. On a miss in both cache tiers the fragment
// compiles whole: materialize, then optimize and generate code, with every
// stage under panic isolation and failures walking the degradation ladder
// (lower opt level, then -O0 with the failing pass quarantined, then the
// last-good cached object) before the rebuild is allowed to fail. When
// tracing is on the fragment records a span under parent with one child per
// stage, the cache-hit / degradation / deferral outcome as attributes, and
// any failure attached.
func (e *Engine) compileOne(id int, temp *ir.Module, th tempHashes, parent *telemetry.Span) fragOut {
	out := fragOut{ran: true}
	fs := parent.Child("fragment")
	fs.SetAttrInt("id", int64(id))
	defer func() { observeFragSpan(fs, &out) }()
	if hook := e.testFragHook; hook != nil {
		if err := hook(id); err != nil {
			out.err = FragError{FragID: id, Stage: StageHook, Err: err}
			return out
		}
	}
	frag := e.Plan.Fragments[id]

	out.hash = fragmentHash(frag, th)
	out.fc = FragCompile{FragID: id, Level: optLevel, FuncsTotal: countMemberFuncs(frag, temp)}
	e.mu.RLock()
	st := e.frags[id]
	bypass := e.persistBypass
	e.mu.RUnlock()
	if cached := st.lookup(out.hash); cached != nil {
		// Content-hash hit on either generation: the post-instrumentation
		// IR is byte-identical to what produced the cached object, so the
		// whole pipeline — materialize included — would reproduce it
		// exactly. Skip it all.
		out.obj = cached
		out.fc.CacheHit = true
		out.fc.FuncCacheHits = out.fc.FuncsTotal
		out.fc.Instrs = cached.CodeSize()
		return out
	}

	// Second tier: the persistent artifact store. A verified disk entry for
	// this content hash (and compile configuration) is byte-identical to
	// what the cold pipeline below would produce, so it skips the pipeline
	// exactly like a memory hit; the commit installs it into the in-memory
	// tier. Bypassed between InvalidateCache and the next committed rebuild,
	// and for fragments with quarantined passes (a cold compile would route
	// around them, so a clean persisted object would no longer be
	// byte-identical to it).
	if !bypass && len(st.quarantine) == 0 {
		if ent := e.loadPersisted(out.hash); ent != nil {
			out.obj = ent.Object
			out.fc.WarmHit = true
			out.fc.Level = ent.Level
			out.fc.FuncCacheHits = out.fc.FuncsTotal
			out.fc.Instrs = ent.Object.CodeSize()
			return out
		}
	}

	// All fragment-module cloning below draws from a pooled arena; every
	// module the ladder clones is dead when this compile returns, so the
	// slabs recycle per fragment.
	arena := ir.GetCloneArena()
	defer ir.PutCloneArena(arena)

	quarantined := st.quarantine
	var lastErr FragError
	for attempt, lv := range ladderLevels {
		// Every rung starts from a pristine fragment module: a failed
		// attempt may have left the previous one half-transformed.
		fm, merr := e.materializeIsolated(frag, temp, arena, &out.fc, fs)
		if merr != nil {
			return degradeToCache(st.obj, out, stageError(id, StageMaterialize, "", merr))
		}
		if attempt > 0 && lv == 0 && lastErr.Pass != "" {
			// Last compile rung: quarantine the pass that failed so
			// future rebuilds of this fragment route around it.
			quarantined = e.addQuarantine(id, lastErr.Pass)
			out.fc.QuarantinedPass = lastErr.Pass
		}
		out.fc.Attempts = attempt + 1
		o, ferr := e.compileAttempt(id, fm, attemptSpec{level: lv, quarantined: quarantined}, &out.fc, fs)
		if ferr == nil {
			out.fc.Level = lv
			out.fc.Degraded = attempt > 0 || len(quarantined) > 0
			out.fc.Instrs = o.CodeSize()
			out.fc.FuncsCompiled = out.fc.FuncsTotal
			out.obj = o
			return out
		}
		lastErr = *ferr
	}
	return degradeToCache(st.obj, out, lastErr)
}

// materializeIsolated is materialize under panic isolation, timed onto fc
// and recorded as a stage span under fs. The span reuses the engine's own
// timer, so tracing adds no clock reads on this path.
func (e *Engine) materializeIsolated(frag *Fragment, temp *ir.Module, arena *ir.CloneArena, fc *FragCompile, fs *telemetry.Span) (*ir.Module, error) {
	var fm *ir.Module
	t0 := time.Now()
	err := capture(func() error {
		var merr error
		fm, merr = e.materialize(frag, temp, arena)
		return merr
	})
	d := time.Since(t0)
	fc.Materialize += d
	fs.StaticChild(StageMaterialize, t0, d).EndErr(err)
	return fm, err
}

// attemptSpec is what varies between compile attempts of one fragment: the
// ladder's rung (level, quarantined passes).
type attemptSpec struct {
	level       int
	quarantined map[string]bool
}

// compileAttempt is the one place a fragment module is optimized, verified
// and lowered: it runs optimize+codegen once under panic isolation, returning
// the object or a stage-attributed failure. Opt and codegen times accumulate
// onto fc across attempts. When tracing is on, the attempt records opt and
// codegen stage spans under fs, with the optimizer's individual passes as
// children of the opt span.
func (e *Engine) compileAttempt(id int, fm *ir.Module, spec attemptSpec, fc *FragCompile, fs *telemetry.Span) (*obj.Object, *FragError) {
	trace := &opt.PassTrace{}
	var onPass func(pass string, start time.Time, dur time.Duration, changed bool)
	var scr *passScratch
	if fs != nil {
		// Passes run sequentially inside this attempt. Fixpoint iteration
		// re-runs the same pass several times, so observations aggregate by
		// pass name — one span per pass with the total duration, run count,
		// and change count — and attach as one batch below. The aggregation
		// buffers come from a pool, so per-pass tracing generates no garbage.
		scr = passScratchPool.Get().(*passScratch)
		scr.aggs = scr.aggs[:0]
		onPass = func(pass string, start time.Time, dur time.Duration, changed bool) {
			aggs := scr.aggs
			for i := range aggs {
				if aggs[i].name == pass {
					aggs[i].dur += dur
					aggs[i].runs++
					if changed {
						aggs[i].changed++
					}
					return
				}
			}
			a := passAgg{name: pass, start: start, dur: dur, runs: 1}
			if changed {
				a.changed = 1
			}
			scr.aggs = append(aggs, a)
		}
	}
	to := time.Now()
	err := capture(func() error {
		if err := opt.OptimizeChecked(fm, &opt.Options{
			Level:      spec.level,
			Quarantine: spec.quarantined,
			Trace:      trace,
			FaultHook:  e.opts.FaultHook,
			OnPass:     onPass,
			VerifyEach: e.verifyEach(),
			OnVerify:   e.onPassVerify,
		}); err != nil {
			return err
		}
		return e.verifyCompiled(fm)
	})
	dOpt := time.Since(to)
	fc.Opt += dOpt
	if fs != nil {
		// The opt stage span is attached after the fact from the timer the
		// engine takes anyway, so tracing costs no extra clock reads here.
		obs := scr.obs[:0]
		for _, a := range scr.aggs {
			obs = append(obs, telemetry.SpanObs{Name: a.name, Start: a.start, Dur: a.dur, Attrs: passAttrs(a.runs, a.changed)})
		}
		os := fs.StaticChild(StageOpt, to, dOpt)
		os.SetAttrInt("level", int64(spec.level))
		os.SetAttrInt("attempt", int64(fc.Attempts))
		os.StaticChildren(obs)
		os.EndErr(err)
		scr.obs = obs[:0]
		passScratchPool.Put(scr)
	}
	if err != nil {
		fe := stageError(id, StageOpt, trace.Pass, err)
		return nil, &fe
	}

	tc := time.Now()
	var o *obj.Object
	err = capture(func() error {
		var cerr error
		o, cerr = codegen.CompileModuleOpts(fm, codegen.Options{FaultHook: e.opts.FaultHook})
		return cerr
	})
	dCG := time.Since(tc)
	fc.CodeGen += dCG
	fs.StaticChild(StageCodegen, tc, dCG).EndErr(err)
	if err != nil {
		fe := stageError(id, StageCodegen, "", err)
		return nil, &fe
	}
	return o, nil
}

// degradeToCache is the degradation ladder's last rung: serve the
// fragment's last-good cached object, deferring the probe change, or
// surface the hard failure when the fragment has never been built.
func degradeToCache(cached *obj.Object, out fragOut, fe FragError) fragOut {
	if cached == nil {
		out.err = fe
		return out
	}
	out.obj = cached
	out.deferred = true
	out.fc.Deferred = true
	out.fc.DeferredCause = fe.Error()
	out.fc.Instrs = cached.CodeSize()
	return out
}
