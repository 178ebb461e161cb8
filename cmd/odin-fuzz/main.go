// Command odin-fuzz runs a coverage-guided fuzzing campaign against a suite
// program using the OdinCov tool, demonstrating the system end to end:
// probes on every original basic block, feedback-driven corpus growth, and
// on-the-fly probe pruning via recompilation as coverage saturates.
//
// Every module the harness takes in — generated or parsed from a file — runs
// through the strict IR verifier (SSA dominance + full type checking) before
// it reaches the optimizer; verifier failures are reported as their own crash
// class ("invalid-ir") rather than being fed into opt, and the same
// classification applies to rebuild failures during the campaign. The -verify
// flag picks the engine's rebuild-path tier (see DESIGN.md).
//
// Usage:
//
//	odin-fuzz [-program demo | -ir file.ir] [-iters 5000] [-seed 1] [-prune]
//	          [-rebuild-timeout D] [-metrics-addr HOST:PORT] [-storm N]
//	          [-verify off|boundaries|all]
//
// With -storm N the harness fires N concurrent probe toggles through the
// rebuild supervisor before the campaign — a stress pass proving the
// admission queue, coalescing, and rollback leave every coverage probe
// active and the image consistent before fuzzing begins.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"odin/internal/core"
	"odin/internal/cov"
	"odin/internal/fuzz"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/progen"
	"odin/internal/rt"
	"odin/internal/telemetry"
)

type covTarget struct {
	tool  *cov.Tool
	prune bool
	seen  int

	rebuilds int
}

func (c *covTarget) Execute(input []byte) (fuzz.Feedback, error) {
	res := c.tool.RunInput(input)
	fb := fuzz.Feedback{Cycles: res.Cycles}
	if res.Err != nil {
		var trap *rt.TrapError
		if errors.As(res.Err, &trap) {
			fb.Crashed = true
			return fb, nil
		}
		return fb, res.Err
	}
	if n := c.tool.CoveredCount(); n > c.seen {
		c.seen = n
		fb.NewCoverage = true
		if c.prune {
			pruned, err := c.tool.MaybePrune()
			if err != nil {
				return fb, err
			}
			if pruned > 0 {
				c.rebuilds++
			}
		}
	}
	return fb, nil
}

func main() {
	program := flag.String("program", "demo", "target: demo (planted bug) or a suite program name")
	irFile := flag.String("ir", "", "fuzz a textual-IR module from a file instead of a generated program")
	iters := flag.Int("iters", 5000, "fuzz iterations")
	seed := flag.Uint64("seed", 1, "campaign RNG seed")
	prune := flag.Bool("prune", true, "prune covered probes via on-the-fly recompilation")
	rebuildTimeout := flag.Duration("rebuild-timeout", 0, "deadline for one on-the-fly rebuild (0 = none)")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry (rebuild metrics, per-probe hit counts, traces) on this host:port")
	storm := flag.Int("storm", 0, "fire this many concurrent probe toggles through the rebuild supervisor before the campaign (0 = off)")
	verify := flag.String("verify", "", "engine IR-verification tier during the campaign: off, boundaries (default), or all")
	cacheDir := flag.String("cache-dir", "", "persistent artifact cache directory (warm-starts the campaign's first build across runs)")
	snapshot := flag.String("snapshot", "", "engine state snapshot file (restored at startup, rewritten at exit)")
	flag.Parse()

	verifyMode, ok := core.ParseVerifyMode(*verify)
	if !ok {
		fmt.Fprintf(os.Stderr, "odin-fuzz: -verify %q: want off, boundaries, or all\n", *verify)
		os.Exit(2)
	}

	if err := run(*program, *irFile, *iters, *seed, *prune, *rebuildTimeout, *metricsAddr, *storm, verifyMode, *cacheDir, *snapshot); err != nil {
		fmt.Fprintf(os.Stderr, "odin-fuzz: %v\n", err)
		os.Exit(1)
	}
}

// closeOnSignal runs cleanup when the process receives SIGINT or SIGTERM —
// flushing the persistent artifact store and state snapshot a finished
// campaign would have written — then exits with the conventional 128+signal
// status. The returned function releases the handler on the normal path.
func closeOnSignal(cleanup func() error) func() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "odin-fuzz: %v, flushing persistence\n", sig)
			if err := cleanup(); err != nil {
				fmt.Fprintf(os.Stderr, "odin-fuzz: close: %v\n", err)
			}
			code := 130 // 128 + SIGINT
			if sig == syscall.SIGTERM {
				code = 143
			}
			os.Exit(code)
		case <-done:
		}
	}()
	return func() { signal.Stop(sigCh); close(done) }
}

// loadModule resolves the campaign target: a parsed IR file or a generated
// suite program.
func loadModule(program, irFile string) (string, *ir.Module, error) {
	if irFile != "" {
		src, err := os.ReadFile(irFile)
		if err != nil {
			return "", nil, err
		}
		m, err := irtext.Parse(irFile, string(src))
		if err != nil {
			return "", nil, err
		}
		return irFile, m, nil
	}
	var profile progen.Profile
	if program == "demo" {
		profile = progen.Demo()
	} else {
		p, ok := progen.ByName(program)
		if !ok {
			return "", nil, fmt.Errorf("unknown program %q", program)
		}
		profile = p
	}
	return profile.Name, profile.Generate(), nil
}

// classifyInvalidIR reports verifier failures as their own crash class: the
// harness refuses to push invalid IR into the optimizer, whether the module
// arrived broken or an on-the-fly rebuild produced broken instrumented IR.
func classifyInvalidIR(when string, err error) error {
	var ve *ir.VerifyError
	if !errors.As(err, &ve) {
		return err
	}
	fmt.Printf("crash class:     invalid-ir (%s)\n  %v\n", when, ve)
	return fmt.Errorf("invalid IR %s: %w", when, err)
}

// stormToggle hammers the supervisor with paired remove/enable requests over
// the tool's coverage probes before the campaign. Every pair leaves its probe
// active, so the campaign starts fully instrumented; the point is to prove
// the supervised rebuild path converges under concurrency on the real tool.
func stormToggle(tool *cov.Tool, n int) error {
	if len(tool.Probes) == 0 {
		return fmt.Errorf("storm: no probes to toggle")
	}
	sup := core.Supervise(tool.Engine, core.SupervisorOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	const gor = 8
	var (
		mu      sync.Mutex
		tickets []*core.Ticket
	)
	var wg sync.WaitGroup
	errs := make([]error, gor)
	for g := 0; g < gor; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine owns the probes congruent to it mod gor, so no
			// two goroutines fight over one probe's final state.
			var owned []int
			for i := g; i < len(tool.Probes); i += gor {
				owned = append(owned, i)
			}
			if len(owned) == 0 {
				return
			}
			pairs := n / (2 * gor)
			for j := 0; j < pairs; j++ {
				id := tool.ManagerID(owned[j%len(owned)])
				t1, err := sup.RemoveProbeCtx(ctx, id)
				if err != nil {
					errs[g] = err
					return
				}
				t2, err := sup.EnableProbeCtx(ctx, id)
				if err != nil {
					errs[g] = err
					return
				}
				mu.Lock()
				tickets = append(tickets, t1, t2)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			sup.Close()
			return err
		}
	}
	if err := sup.Drain(ctx); err != nil {
		return err
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(ctx); err != nil {
			return fmt.Errorf("storm: unresolved ticket: %w", err)
		}
	}
	st := sup.Stats()
	fmt.Printf("storm:           %d requests in %d generations (%.1fx coalesced), breaker %s, %d active probes\n",
		st.Requests, st.Generations, st.CoalescingRatio, st.Breaker, tool.ActiveProbes())
	if got, want := tool.ActiveProbes(), len(tool.Probes); got != want {
		return fmt.Errorf("storm left %d/%d probes active", got, want)
	}
	tool.Rebind()
	return nil
}

func run(program, irFile string, iters int, seed uint64, prune bool, rebuildTimeout time.Duration, metricsAddr string, storm int, verify core.VerifyMode, cacheDir, snapshot string) error {
	name, m, err := loadModule(program, irFile)
	if err != nil {
		return err
	}
	// Strict verification up front: a campaign target with subtly broken SSA
	// or types is an invalid-ir crash class, not hours of confusing fuzzing.
	if err := ir.VerifyStrict(m); err != nil {
		return classifyInvalidIR("before campaign", err)
	}
	opts := core.Options{
		Variant:        core.VariantOdin,
		RebuildTimeout: rebuildTimeout,
		Verify:         verify,
		CacheDir:       cacheDir,
		SnapshotPath:   snapshot,
	}
	if metricsAddr != "" {
		opts.Telemetry = telemetry.NewRegistry()
	}
	tool, err := cov.New(m, opts, prune)
	if err != nil {
		return err
	}
	defer tool.Engine.Close()
	// An interrupted campaign still flushes the artifact cache and snapshot:
	// Close is Once-guarded, so the deferred call stays a no-op afterwards.
	defer closeOnSignal(tool.Engine.Close)()
	if metricsAddr != "" {
		srv, err := telemetry.Serve(metricsAddr, opts.Telemetry, func() any { return tool.Engine.Snapshot() })
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving on %s\n", srv.Addr())
	}
	fmt.Printf("target %s: %d probes over %d fragments\n",
		name, len(tool.Probes), len(tool.Engine.Plan.Fragments))
	if storm > 0 {
		if err := stormToggle(tool, storm); err != nil {
			return err
		}
	}

	target := &covTarget{tool: tool, prune: prune}
	f := fuzz.New(target, fuzz.Options{
		Seed:       seed,
		MaxLen:     32,
		Seeds:      [][]byte{{0x42, 0, 0, 0}, []byte("fuzzing seed")},
		Dictionary: [][]byte{{0x42, 0x55, 0x47}},
	})
	stats, err := f.Run(iters)
	if err != nil {
		return classifyInvalidIR("during rebuild", err)
	}

	fmt.Printf("executions:      %d\n", stats.Execs)
	fmt.Printf("corpus size:     %d\n", stats.CorpusSize)
	fmt.Printf("blocks covered:  %d / %d\n", tool.CoveredCount(), len(tool.Probes))
	fmt.Printf("active probes:   %d (pruned %d via %d recompilations)\n",
		tool.ActiveProbes(), len(tool.Probes)-tool.ActiveProbes(), target.rebuilds)
	fmt.Printf("crashes:         %d\n", stats.Crashes)
	for i, c := range f.Crashes {
		if i >= 3 {
			fmt.Printf("  ... %d more\n", len(f.Crashes)-3)
			break
		}
		fmt.Printf("  crash input: %q (exec %d)\n", c.Data, c.FoundAt)
	}
	return nil
}
