package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"odin/internal/core"
)

// config is one invocation: the four arguments of the benchmark contract
// plus where the run may keep temporary state.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scratch  string
}

// sizes are the fixed op counts of a run. Nothing in the measured phase is
// time-boxed: a slower build does the same work and takes longer. The
// counts are constants of the benchmark, the same on both commits of a
// comparison; fullSizes scales them from --seconds so that on the reference
// box (2 shared cores) the measured phase lasts about that long.
type sizes struct {
	name         string // key into expected.json
	replayInputs int    // inputs of the interpreter check, shared among the programs

	fuzzSetupReps, fuzzSeeds, fuzzIters, healthExecs int
	toggleSetupReps, toggleWarm, toggleCycles        int // cycles per program
	suiteSetupReps, suiteRounds                      int
	serveSetupReps, serveWarm, serveRequests         int // requests per client
	layerReps, layerTickets                          int // tickets: add/remove pairs per program on a bare supervisor
}

// refSeconds is the --seconds the constants below were sized for.
const refSeconds = 20

func fullSizes(seconds int) sizes {
	scale := func(n int) int {
		if v := n * seconds / refSeconds; v > 0 {
			return v
		}
		return 1
	}
	return sizes{
		name:         fmt.Sprintf("full-%ds", seconds),
		replayInputs: 1248,

		fuzzSetupReps: 7, fuzzSeeds: 2, fuzzIters: scale(2000), healthExecs: 300,
		toggleSetupReps: 5, toggleWarm: 40, toggleCycles: scale(1150),
		suiteSetupReps: 5, suiteRounds: scale(46),
		serveSetupReps: 7, serveWarm: 1000, serveRequests: scale(52000),
		layerReps: 3, layerTickets: 12,
	}
}

// outcome is what every workload hands back for the end-to-end metrics.
type outcome struct {
	programs []*program
	setup    sample        // seconds, one per set-up repetition
	ops      int           // primary ops completed in the measured phase
	wall     time.Duration // wall time of the measured phase
	primary  []sample      // per program (or shard) primary-op latencies, µs
	alt      []sample      // same for the alternate op
	cycles   int64         // deterministic vm cycles ...
	execs    int64         // ... over this many executions
	overhead arms          // traced run only
}

// run is the state of one benchmark process.
type run struct {
	cfg  config
	sz   sizes
	ms   *metricSet
	t0   time.Time
	log  io.Writer
	host *hostProbe

	attempted, failed int
	faults            []string
	tracers           []*tracer
	invariants        map[string]map[string]string
}

// tracer returns a new tracer in a traced run and nil otherwise.
func (r *run) tracer(capacity int) *tracer {
	if !r.cfg.trace {
		return nil
	}
	t := newTracer(r.t0, capacity)
	t.on = true
	r.tracers = append(r.tracers, t)
	return t
}

// fail records ops that errored, were shed, or failed an output check.
func (r *run) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.faults) < 20 {
		r.faults = append(r.faults, fmt.Sprintf(format, args...))
	}
}

// pin records a compiler-independent invariant of one program for
// expected.json.
func (r *run) pin(prog, key string, v any) {
	if r.invariants[prog] == nil {
		r.invariants[prog] = map[string]string{}
	}
	r.invariants[prog][key] = fmt.Sprint(v)
}

// load generates the workload's programs and pins their reference results.
func (r *run) load(names []string) (*outcome, error) {
	progs, err := loadPrograms(names, r.cfg.seed, r.sz.replayInputs)
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		r.pin(p.name, "ref_hash", fmt.Sprintf("%016x", p.refHash()))
	}
	return &outcome{programs: progs}, nil
}

// repeatSetup runs a workload's whole set-up reps times, each on fresh state
// (teardown discards the previous repetition's), and records each duration;
// the state the last repetition leaves is the one measured. The collection
// in between keeps one repetition's garbage, which is the harness's and not
// the system's, out of the next one's time and out of peak_rss_mb.
func (out *outcome) repeatSetup(reps int, teardown, setup func() error) error {
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			if err := teardown(); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	return nil
}

// tempDir makes a fresh directory under the run's scratch directory.
func (r *run) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(r.cfg.scratch, pattern)
}

// rebuildAgg sums the RebuildStats the timed ops returned.
type rebuildAgg struct {
	rebuilds, altRebuilds     int
	frags, altFrags, fragHits int
	funcHits, funcsCompiled   int
	primaryFuncs              int
	spliced, fallbacks        int
	degraded, deferred        int
	incremental               int
	compileWall, compileCPU   time.Duration
	link                      time.Duration
	total                     int
}

func (a *rebuildAgg) add(st *core.RebuildStats, alt bool) {
	if alt {
		a.altRebuilds++
		a.altFrags += len(st.Fragments)
	} else {
		a.rebuilds++
		a.frags += len(st.Fragments)
		a.primaryFuncs += st.FuncsCompiled
	}
	a.total += len(st.Fragments)
	a.fragHits += st.CacheHits
	a.funcHits += st.FuncCacheHits
	a.funcsCompiled += st.FuncsCompiled
	a.spliced += st.Spliced
	a.fallbacks += st.SpliceFallbacks
	a.degraded += st.Degraded
	a.deferred += st.Deferred
	if st.IncrementalLink {
		a.incremental++
	}
	a.compileWall += st.CompileWall
	a.compileCPU += st.CompileCPU
	a.link += st.LinkDur
}

// report sets the core.* and link.* counters: hit rates over every rebuild,
// times per rebuild, and functions compiled per primary op (ops of them; a
// toggle cycle is two rebuilds, so splicing at its best reads 2).
func (a *rebuildAgg) report(ms *metricSet, ops int) {
	n := float64(a.rebuilds + a.altRebuilds)
	if n == 0 {
		return
	}
	ms.set("core.schedule_frags_per_op", ratio(float64(a.frags), float64(a.rebuilds)))
	ms.set("core.batch_frags_per_op", ratio(float64(a.altFrags), float64(a.altRebuilds)))
	ms.set("core.compile_wall_us", us(a.compileWall)/n)
	ms.set("core.compile_cpu_us", us(a.compileCPU)/n)
	ms.set("core.funcs_compiled_per_op", ratio(float64(a.primaryFuncs), float64(ops)))
	ms.set("core.func_cache_hit_pct", pct(float64(a.funcHits), float64(a.funcHits+a.funcsCompiled)))
	ms.set("core.frag_cache_hit_pct", pct(float64(a.fragHits), float64(a.total)))
	ms.set("core.spliced_pct", pct(float64(a.spliced), float64(a.total)))
	ms.set("core.splice_fallbacks", float64(a.fallbacks))
	ms.set("core.degraded", float64(a.degraded))
	ms.set("core.deferred", float64(a.deferred))
	ms.set("link.rebuild_link_us", us(a.link)/n)
	ms.set("link.incremental_pct", pct(float64(a.incremental), n))
}

var workloads = map[string]func(*run) (*outcome, error){
	"fuzz-campaign": fuzzCampaign,
	"toggle-steady": toggleSteady,
	"suite-build":   suiteBuild,
	"serve-mixed":   serveMixed,
}

// workloadNames is the order BENCHMARK.json lists them in.
var workloadNames = []string{"fuzz-campaign", "toggle-steady", "suite-build", "serve-mixed"}

// execute runs one workload and prints its report: a line per metric, then
// the result object as the last line. It reports whether every op and every
// output check passed.
func execute(cfg config, sz sizes, stdout, log io.Writer) (bool, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return false, err
	}
	scratch, err := os.MkdirTemp(cfg.scratch, "run-*")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)
	cfg.scratch = scratch

	r := &run{cfg: cfg, sz: sz, ms: newMetricSet(), t0: time.Now(), log: log,
		invariants: map[string]map[string]string{}}
	r.host = startHostProbe()
	out, err := wl(r)
	if err != nil {
		return false, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.endToEnd(out)
	if cfg.trace {
		r.spanMetrics(digest(r.tracers))
		if err := layersPhase(r, out.programs); err != nil {
			return false, fmt.Errorf("%s: layers phase: %w", cfg.workload, err)
		}
		names := make([]string, len(out.programs))
		for i, p := range out.programs {
			names[i] = p.name
		}
		path := filepath.Join(filepath.Dir(scratch), "trace-"+cfg.workload+".jsonl")
		if err := writeTrace(path, names, r.tracers); err != nil {
			return false, err
		}
		fmt.Fprintf(log, "trace: %s\n", path)
	}
	r.host.report(r.ms)
	r.checkExpected()
	return r.print(stdout)
}

// endToEnd derives the six end-to-end metrics and the tail ledger.
func (r *run) endToEnd(out *outcome) {
	ms := r.ms
	ms.set("setup_s", out.setup.median())
	ms.set("ops_per_s", float64(out.ops)/out.wall.Seconds())
	ms.set("op_p50_us", groupP50(out.primary))
	ms.set("alt_op_p50_us", groupP50(out.alt))
	ms.set("cycles_per_exec", ratio(float64(out.cycles), float64(out.execs)))
	all, altAll := pooled(out.primary), pooled(out.alt)
	// p99 needs ten samples beyond it; below 1000 samples the tail is noise.
	ms.set("tail.op_p99_us", all.percentile(99))
	ms.set("tail.alt_op_p99_us", altAll.percentile(99))
	ms.set("tail.op_samples", float64(len(all)))
	ms.set("tail.alt_op_samples", float64(len(altAll)))
	ms.set("bench.trace_overhead_pct", out.overhead.overheadPct())
}

// spanMetrics reports what the timed ops' spans say about each layer. A
// name with no spans reads 0: that layer was not on this workload's path.
func (r *run) spanMetrics(st *spanStats) {
	ms := r.ms
	ms.set("core.schedule_us", st.dur[spSchedule].median())
	ms.set("core.rebuild_us", st.dur[spRebuild].median())
	ms.set("vm.exec_us", st.dur[spRunInput].median())
	ms.set("cov.covered_count_us", st.dur[spCoveredCount].median())
	reads := append(append(sample(nil), st.dur[spClientFunctions]...), st.dur[spClientFleet]...)
	ms.set("serve.read_p50_us", reads.median())
	ms.set("bench.span_coverage_pct", st.coveragePct())
	fmt.Fprintf(r.log, "span self time over the timed ops (us):\n")
	for n := spanName(0); n < numSpanNames; n++ {
		if len(st.dur[n]) > 0 {
			fmt.Fprintf(r.log, "  %-20s calls %7d  p50 %10.1f  self total %12.0f\n",
				spanNames[n], len(st.dur[n]), st.dur[n].median(), st.self[n])
		}
	}
}

// expectedFile maps sizes name → seed → workload → program → invariants.
type expectedFile map[string]map[string]map[string]map[string]map[string]string

// checkExpected holds the run's invariants to expected.json when it pins
// this (sizes, seed, workload); other seeds rest on the interpreter check.
func (r *run) checkExpected() {
	for prog, kv := range r.invariants {
		for k, v := range kv {
			fmt.Fprintf(r.log, "invariant %s %s %s=%s\n", r.cfg.workload, prog, k, v)
		}
	}
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		r.fail(1, "expected.json: %v", err)
		return
	}
	want, ok := exp[r.sz.name][fmt.Sprint(r.cfg.seed)][r.cfg.workload]
	if !ok {
		return
	}
	for prog, kv := range want {
		for k, v := range kv {
			if got := r.invariants[prog][k]; got != v {
				r.fail(1, "expected.json: %s %s %s = %s, want %s", r.cfg.workload, prog, k, got, v)
			}
		}
	}
}

// print writes the report. Untraced runs carry the end-to-end metrics in the
// result object, traced runs the per-layer ones; the readable lines above it
// show both in a traced run.
func (r *run) print(w io.Writer) (bool, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return false, err
	}
	r.ms.set("peak_rss_mb", rss)

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}

	fmt.Fprintf(w, "workload %s seed %d sizes %s trace %v go %s\n",
		r.cfg.workload, r.cfg.seed, r.sz.name, r.cfg.trace, runtime.Version())
	emit := func(list []metricDef, inResult bool) {
		for _, d := range list {
			v := r.ms.values[d.name]
			fmt.Fprintf(w, "metric %-32s %16.4f %s\n", d.name, v, d.unit)
			if inResult {
				result.Metrics[d.name] = jsonMetric{v, d.unit}
			}
		}
	}
	for _, d := range endToEnd {
		if r.ms.values[d.name] <= 0 {
			return false, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
	}
	emit(endToEnd, !r.cfg.trace)
	if r.cfg.trace {
		emit(perLayer, true)
	}
	// Every run shows the host readings, so a disturbed run is recognisable
	// without its traced twin.
	fmt.Fprintf(w, "host steal_pct=%.2f gc_cpu_pct=%.2f calib_us=%.0f nproc=%.0f\n", r.ms.values["host.steal_pct"],
		r.ms.values["host.gc_cpu_pct"], r.ms.values["host.calib_us"], r.ms.values["host.nproc"])
	fmt.Fprintf(w, "ops_attempted %d ops_failed %d\n", r.attempted, r.failed)
	for _, f := range r.faults {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	line, err := json.Marshal(result)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return r.failed == 0, nil
}
