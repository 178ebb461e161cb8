// Command odin-bench regenerates the paper's evaluation tables and figures
// (§5) on the generated 13-program suite.
//
// Usage:
//
//	odin-bench [-experiment all|fig3|fig8|fig9|fig10|fig11|fig12|headline|parallel|faults|storm|verify-overhead|cold-warm|serve-storm|serve-chaos]
//	           [-campaign N] [-programs a,b,c] [-parallel] [-workers N]
//	           [-fault-rounds N] [-fault-seed N] [-json] [-metrics-addr HOST:PORT]
//	           [-storm-goroutines N] [-storm-requests N] [-toggle-rounds N]
//	           [-coldwarm-rounds N] [-verify off|boundaries|all]
//	           [-serve-tenants N] [-serve-requests N] [-serve-programs a,b]
//	           [-bench-out FILE] [-bench-compare FILE]
//
// -experiment also accepts a comma-separated list of the self-contained
// experiments (verify-overhead, cold-warm, fig3, serve-storm, serve-chaos),
// so one invocation can record a multi-experiment benchmark artifact:
//
//	odin-bench -experiment verify-overhead,cold-warm -bench-out BENCH_<n>.json
//
// -verify forces the engine verification tier (ODIN_VERIFY) for every engine
// the harness creates; the verify-overhead experiment ignores it and pins its
// two arms explicitly.
//
// With -json the selected experiments' raw results — including every
// rebuild's full RebuildStats with the degradation/quarantine/deferral
// accounting — are emitted as one JSON document on stdout (progress chatter
// moves to stderr). With -metrics-addr a telemetry registry is attached to
// every engine the harness creates and served live for the duration of the
// run.
//
// -bench-out writes a benchmark artifact (BENCH_<n>.json schema: latency
// percentiles, cache-hit rates, budgets) summarizing whichever
// artifact-bearing experiments ran. -bench-compare loads a committed
// artifact and fails the run (exit 1) when the current results regress p99
// latency by more than 15% beyond a 2ms floor, or break an absolute budget.
// See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"odin/internal/bench"
	"odin/internal/core"
	"odin/internal/progen"
	"odin/internal/telemetry"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: all, fig3, fig8, fig9, fig10, fig11, fig12, headline, ablation, codegen, parallel, faults, storm, verify-overhead, cold-warm, serve-storm, serve-chaos")
	campaign := flag.Int("campaign", 400, "fuzzing iterations used to generate each replay corpus")
	programs := flag.String("programs", "", "comma-separated subset of programs (default: all 13)")
	parallel := flag.Bool("parallel", false, "with fig11: also report wall-clock speedup of the concurrent recompile pipeline")
	workers := flag.Int("workers", 0, "worker count for the parallel experiment (0 = GOMAXPROCS)")
	faultRounds := flag.Int("fault-rounds", 3, "rebuild rounds per program and injection-rate cell in the faults experiment")
	faultSeed := flag.Uint64("fault-seed", 1, "base seed for the deterministic fault injector")
	jsonOut := flag.Bool("json", false, "emit raw experiment results (full RebuildStats included) as JSON on stdout")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry for the run on this host:port (port 0 = pick a free port)")
	stormG := flag.Int("storm-goroutines", 8, "concurrent submitter goroutines in the storm experiment")
	stormN := flag.Int("storm-requests", 64, "probe requests per goroutine in the storm experiment")
	toggleRounds := flag.Int("toggle-rounds", 40, "probe toggles per workload in the verify-overhead experiment")
	coldWarmRounds := flag.Int("coldwarm-rounds", 5, "engine restarts per arm and workload in the cold-warm experiment")
	cacheDir := flag.String("cache-dir", "", "with -experiment cold-warm: pin each workload's persistent cache to a subdirectory of this path and leave it on disk for inspection (default: fresh temp dirs, removed)")
	snapshot := flag.String("snapshot", "", "with -experiment cold-warm and -cache-dir: base path for the per-workload engine state snapshots (default: state.snap inside each workload's cache)")
	serveTenants := flag.Int("serve-tenants", 3, "healthy tenants in the serve-storm experiment (the hostile arm adds one more)")
	serveRequests := flag.Int("serve-requests", 40, "probe add/remove cycles per healthy tenant in the serve-storm experiment")
	servePrograms := flag.String("serve-programs", "json,woff2", "the two suite programs the serve-storm daemon shards host")
	verify := flag.String("verify", "", "engine IR-verification tier for the run: off, boundaries, all (default: ODIN_VERIFY or boundaries)")
	benchOut := flag.String("bench-out", "", "write a benchmark artifact (BENCH_<n>.json schema) to this file")
	benchCompare := flag.String("bench-compare", "", "compare this run's artifact against a committed one; exit 1 on regression")
	flag.Parse()

	if *verify != "" {
		if _, ok := core.ParseVerifyMode(*verify); !ok {
			fmt.Fprintf(os.Stderr, "odin-bench: -verify %q: want off, boundaries, or all\n", *verify)
			os.Exit(2)
		}
		// The harness builds engines in many places; route the tier through
		// the engine's environment resolution instead of threading an option
		// into every constructor.
		os.Setenv("ODIN_VERIFY", *verify)
	}

	serveCfg := serveStormCfg{tenants: *serveTenants, requests: *serveRequests}
	for _, p := range strings.Split(*servePrograms, ",") {
		if p = strings.TrimSpace(p); p != "" {
			serveCfg.programs = append(serveCfg.programs, p)
		}
	}
	if err := run(*experiment, *campaign, *programs, *parallel, *workers, *faultRounds, *faultSeed, *jsonOut, *metricsAddr, *stormG, *stormN, *toggleRounds, *coldWarmRounds, *cacheDir, *snapshot, *benchOut, *benchCompare, serveCfg); err != nil {
		fmt.Fprintf(os.Stderr, "odin-bench: %v\n", err)
		os.Exit(1)
	}
}

// serveStormCfg carries the serve-storm experiment's knobs.
type serveStormCfg struct {
	tenants  int
	requests int
	programs []string
}

func run(experiment string, campaign int, programs string, parallel bool, workers, faultRounds int, faultSeed uint64, jsonOut bool, metricsAddr string, stormG, stormN, toggleRounds, coldWarmRounds int, cacheDir, snapshot, benchOut, benchCompare string, serveCfg serveStormCfg) (err error) {
	var w io.Writer = os.Stdout
	report := map[string]any{}
	if jsonOut {
		// Human-readable tables and progress move to stderr; stdout carries
		// exactly one JSON document.
		w = os.Stderr
		defer func() {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(report)
		}()
	}
	// The artifact accumulates whichever artifact-bearing experiments run;
	// -bench-out / -bench-compare consume it after the experiment returns.
	art := bench.NewArtifact()
	defer func() {
		if err != nil {
			return
		}
		err = finishArtifact(os.Stderr, art, benchOut, benchCompare)
	}()
	if metricsAddr != "" {
		bench.Telemetry = telemetry.NewRegistry()
		srv, err := telemetry.Serve(metricsAddr, bench.Telemetry, func() any {
			return map[string]any{"experiment": experiment}
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving on %s\n", srv.Addr())
	}

	// The self-contained experiments need no prepared program suite and can
	// be combined in one comma-separated -experiment invocation (one run
	// records a multi-experiment artifact, which the regression gate needs:
	// experiments missing from the current run count as regressions).
	if names := strings.Split(experiment, ","); len(names) > 1 || isQuick(names[0]) {
		for _, name := range names {
			name = strings.TrimSpace(name)
			if !isQuick(name) {
				return fmt.Errorf("experiment %q cannot be combined; lists may only contain %s", name, quickExperiments)
			}
			if err := runQuick(name, w, report, art, toggleRounds, coldWarmRounds, cacheDir, snapshot, serveCfg); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}

	profiles := progen.Suite()
	if programs != "" {
		var sel []progen.Profile
		for _, name := range strings.Split(programs, ",") {
			p, ok := progen.ByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown program %q", name)
			}
			sel = append(sel, p)
		}
		profiles = sel
	}
	fmt.Fprintf(w, "preparing %d programs (campaign %d iterations each)...\n", len(profiles), campaign)
	var progs []*bench.ProgramData
	for _, p := range profiles {
		pd, err := bench.Prepare(p, campaign)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-11s corpus=%d\n", pd.Name, len(pd.Corpus))
		progs = append(progs, pd)
	}
	fmt.Fprintln(w)

	if experiment == "faults" {
		rows, err := bench.RunFaults(progs, faultSeed, faultRounds)
		if err != nil {
			return err
		}
		report["faults"] = rows
		bench.PrintFaults(w, rows)
		fmt.Fprintln(w)
		prows, err := bench.RunPersistFaults(progs, faultSeed, faultRounds)
		if err != nil {
			return err
		}
		report["persist_faults"] = prows
		bench.PrintPersistFaults(w, prows)
		pviol := 0
		for _, r := range prows {
			pviol += r.Violations()
		}
		if pviol > 0 {
			return fmt.Errorf("persist fault sweep: %d invariant violations", pviol)
		}
		return nil
	}
	if experiment == "storm" {
		rows, err := bench.RunStorm(progs, stormG, stormN, faultSeed)
		if err != nil {
			return err
		}
		report["storm"] = rows
		bench.PrintStorm(w, rows)
		art.AddStorm(rows)
		return nil
	}

	needFig8 := experiment == "all" || experiment == "fig8" || experiment == "fig9" || experiment == "headline"
	needFig10 := experiment == "all" || experiment == "fig10" || experiment == "fig11" || experiment == "fig12"
	needParallel := experiment == "parallel" ||
		(parallel && (experiment == "all" || experiment == "fig11"))

	var f8 *bench.Fig8Result
	if needFig8 {
		var err error
		f8, err = bench.RunFig8(progs)
		if err != nil {
			return err
		}
	}
	var rows []bench.VariantResult
	if needFig10 {
		var err error
		rows, err = bench.RunFig10(progs)
		if err != nil {
			return err
		}
	}

	show := func(name string) bool { return experiment == "all" || experiment == name }
	if experiment == "all" {
		r, err := bench.RunFig3()
		if err != nil {
			return err
		}
		report["fig3"] = r
		bench.PrintFig3(w, r)
		fmt.Fprintln(w)
	}
	if show("fig8") {
		report["fig8"] = f8
		bench.PrintFig8(w, f8)
		fmt.Fprintln(w)
	}
	if show("fig9") {
		s := bench.Summarize(f8)
		report["fig9"] = s
		bench.PrintFig9(w, s)
		fmt.Fprintln(w)
	}
	if show("fig10") {
		report["fig10"] = rows
		bench.PrintFig10(w, rows, bench.SummarizeFig10(rows))
		fmt.Fprintln(w)
	}
	if show("fig11") {
		f11 := bench.Fig11(rows)
		report["fig11"] = f11
		bench.PrintFig11(w, f11)
		fmt.Fprintln(w)
	}
	if needParallel {
		prows, err := bench.RunParallel(progs, workers)
		if err != nil {
			return err
		}
		report["parallel"] = prows
		bench.PrintParallel(w, prows)
		art.AddParallel(prows)
		fmt.Fprintln(w)
	}
	if show("fig12") {
		f12 := bench.Fig12(rows)
		report["fig12"] = f12
		bench.PrintFig12(w, f12)
		fmt.Fprintln(w)
	}
	if show("ablation") {
		rows, err := bench.RunAblation(progs)
		if err != nil {
			return err
		}
		report["ablation"] = rows
		bench.PrintAblation(w, rows)
		fmt.Fprintln(w)
	}
	if show("codegen") {
		rows, err := bench.RunCodegenAblation(progs)
		if err != nil {
			return err
		}
		report["codegen"] = rows
		bench.PrintCodegenAblation(w, rows)
		fmt.Fprintln(w)
	}
	if show("headline") {
		h, err := bench.Headline(f8, progs)
		if err != nil {
			return err
		}
		report["headline"] = h
		bench.PrintHeadline(w, h)
	}
	return nil
}

// quickExperiments are the self-contained experiments runQuick handles: they
// synthesize their own workloads, so they skip suite preparation and may be
// combined in a comma-separated -experiment list.
const quickExperiments = "verify-overhead, cold-warm, fig3, serve-storm, serve-chaos"

func isQuick(name string) bool {
	switch strings.TrimSpace(name) {
	case "verify-overhead", "cold-warm", "fig3", "serve-storm", "serve-chaos":
		return true
	}
	return false
}

// runQuick runs one self-contained experiment, folding its rows into the
// JSON report and the benchmark artifact.
func runQuick(name string, w io.Writer, report map[string]any, art *bench.Artifact, toggleRounds, coldWarmRounds int, cacheDir, snapshot string, serveCfg serveStormCfg) error {
	switch name {
	case "verify-overhead":
		rows, err := bench.RunVerifyOverhead(toggleRounds)
		if err != nil {
			return err
		}
		report["verify_overhead"] = rows
		bench.PrintVerifyOverhead(w, rows)
		art.AddVerifyOverhead(rows)
		for _, r := range rows {
			if r.OverheadPct > bench.VerifyOverheadBudgetPct {
				return fmt.Errorf("verify-overhead: %s overhead %.1f%% exceeds the %.0f%% budget",
					r.Program, r.OverheadPct, bench.VerifyOverheadBudgetPct)
			}
		}
	case "cold-warm":
		rows, err := bench.RunColdWarm(coldWarmRounds, cacheDir, snapshot)
		if err != nil {
			return err
		}
		report["cold_warm"] = rows
		bench.PrintColdWarm(w, rows)
		art.AddColdWarm(rows)
		for _, r := range rows {
			if !r.RefMatch {
				return fmt.Errorf("cold-warm: %s warm image diverged from its cold reference", r.Program)
			}
		}
	case "serve-chaos":
		prog := "json"
		if len(serveCfg.programs) > 0 {
			prog = serveCfg.programs[0]
		}
		sum, err := bench.RunServeChaos(prog, serveCfg.tenants, serveCfg.requests)
		if err != nil {
			return err
		}
		report["serve_chaos"] = sum
		bench.PrintServeChaos(w, sum)
		art.AddServeChaos(sum)
		if sum.DroppedHealthy > 0 {
			return fmt.Errorf("serve-chaos: %d healthy commits dropped during failover (must be 0)", sum.DroppedHealthy)
		}
		if sum.FailoverP99MS > bench.ChaosFailoverBudgetMS {
			return fmt.Errorf("serve-chaos: failover p99 %.0fms exceeds the %dms budget",
				sum.FailoverP99MS, bench.ChaosFailoverBudgetMS)
		}
	case "fig3":
		r, err := bench.RunFig3()
		if err != nil {
			return err
		}
		report["fig3"] = r
		bench.PrintFig3(w, r)
	case "serve-storm":
		sum, err := bench.RunServeStorm(serveCfg.programs, serveCfg.tenants, serveCfg.requests)
		if err != nil {
			return err
		}
		report["serve_storm"] = sum
		bench.PrintServeStorm(w, sum)
		art.AddServeStorm(sum)
		if sum.DroppedHealthy > 0 {
			return fmt.Errorf("serve-storm: %d healthy tickets dropped under hostile load", sum.DroppedHealthy)
		}
		if sum.IsolationX > bench.ServeIsolationFactor {
			return fmt.Errorf("serve-storm: isolation %.2fx exceeds the %.1fx bound",
				sum.IsolationX, bench.ServeIsolationFactor)
		}
	default:
		return fmt.Errorf("unknown quick experiment %q", name)
	}
	return nil
}

// Regression thresholds for -bench-compare: p50/p99 may drift up to 15%
// beyond a 2ms absolute floor (sub-floor jitter on fast machines never
// trips the gate); budgets are absolute.
const (
	regressTolPct  = 15.0
	regressFloorMS = 2.0
)

// finishArtifact writes and/or compares the accumulated benchmark artifact.
func finishArtifact(w io.Writer, art *bench.Artifact, benchOut, benchCompare string) error {
	if len(art.Experiments) == 0 {
		if benchOut != "" || benchCompare != "" {
			fmt.Fprintf(w, "bench artifact: no artifact-bearing experiment ran (verify-overhead, cold-warm, parallel, storm, serve-storm, serve-chaos); nothing to record\n")
		}
		return nil
	}
	if benchOut != "" {
		if err := art.WriteFile(benchOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench artifact: wrote %s (%d experiments)\n", benchOut, len(art.Experiments))
	}
	if benchCompare != "" {
		ref, err := bench.LoadArtifact(benchCompare)
		if err != nil {
			return err
		}
		bad := bench.CompareArtifacts(ref, art, regressTolPct, regressFloorMS)
		if len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintf(w, "bench regression: %s\n", b)
			}
			return fmt.Errorf("%d benchmark regressions vs %s", len(bad), benchCompare)
		}
		fmt.Fprintf(w, "bench artifact: no regression vs %s (tol %.0f%%, floor %.0fms)\n", benchCompare, regressTolPct, regressFloorMS)
	}
	return nil
}
