// Command odin-run is the toolchain driver: it compiles a textual-IR
// program and executes it, or interprets it directly, printing the result,
// output, and cycle count. It is the quickest way to poke at the IR,
// optimizer, and code generator.
//
// Usage:
//
//	odin-run [-O 2] [-interp] [-input "bytes"] [-fn main] [-dump] file.ir
//	odin-run -program sqlite -input "select"      # run a suite program
//	odin-run -odin [-workers N] [-rebuild-timeout D] -program sqlite
//	                                              # build via the Odin engine
//	odin-run -odin -supervise -program sqlite     # route the build through the
//	                                              # concurrent rebuild supervisor
//	odin-run -odin -metrics-addr 127.0.0.1:9090 [-metrics-hold 30s] -program sqlite
//	                                              # + live introspection endpoint
//	odin-run -odin -cache-dir DIR -snapshot FILE -program sqlite
//	                                              # warm-start across runs
//
// The engine flags (-rebuild-timeout, -metrics-addr, -cache-dir, -snapshot)
// apply with -odin. ODIN_VERIFY=off|boundaries|all picks the engine's IR
// verification tier (see DESIGN.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"odin/internal/cli"
	"odin/internal/core"
	"odin/internal/interp"
	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/rt"
	"odin/internal/toolchain"
	"odin/internal/vm"
)

// config is odin-run's parsed command line.
type config struct {
	level                            int
	useInterp, dump, odin, supervise bool
	input, fn, program               string
	workers                          int
	metricsHold                      time.Duration
	engine                           *cli.Flags
}

func main() {
	var c config
	flag.IntVar(&c.level, "O", 2, "optimization level (0-2)")
	flag.BoolVar(&c.useInterp, "interp", false, "use the reference interpreter instead of compiling")
	flag.StringVar(&c.input, "input", "", "fuzz input bytes (for programs with @fuzz_target)")
	flag.StringVar(&c.fn, "fn", "", "function to run (default: fuzz_target if present, else main)")
	flag.BoolVar(&c.dump, "dump", false, "print the optimized IR instead of running")
	flag.StringVar(&c.program, "program", "", "run a generated suite program instead of a file")
	flag.BoolVar(&c.odin, "odin", false, "build through the Odin fragment engine instead of the whole-module toolchain")
	flag.IntVar(&c.workers, "workers", 0, "fragment compile workers for -odin (0 = GOMAXPROCS)")
	flag.BoolVar(&c.supervise, "supervise", false, "with -odin: run the build through the concurrent rebuild supervisor")
	flag.DurationVar(&c.metricsHold, "metrics-hold", 0, "with -metrics-addr: keep serving this long after the run finishes")
	c.engine = cli.EngineFlags()
	flag.Parse()

	if err := run(c, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "odin-run: %v\n", err)
		os.Exit(1)
	}
}

func run(c config, args []string) error {
	var file string
	if c.program == "" {
		if len(args) != 1 {
			return fmt.Errorf("need exactly one .ir file or -program NAME")
		}
		file = args[0]
	}
	m, err := cli.LoadModule(c.program, file)
	if err != nil {
		return err
	}
	if err := ir.Verify(m); err != nil {
		return err
	}

	if c.dump {
		clone, _ := ir.CloneModule(m)
		exe, st, err := toolchain.Build(clone, c.level)
		if err != nil {
			return err
		}
		fmt.Print(ir.Print(clone))
		fmt.Fprintf(os.Stderr, "; %d funcs, %d machine instrs; opt %v, codegen %v, link %v\n",
			len(exe.Funcs), exe.CodeSize(), st.Optimize, st.CodeGen, st.Link)
		return nil
	}

	fn := c.fn
	if fn == "" {
		fn = "main"
		if m.LookupFunc("fuzz_target") != nil {
			fn = "fuzz_target"
		}
	}

	if c.useInterp {
		env := rt.NewEnv()
		ip, err := interp.New(m, env)
		if err != nil {
			return err
		}
		var ret int64
		if fn == "fuzz_target" {
			p, n, err := env.WriteInput([]byte(c.input))
			if err != nil {
				return err
			}
			ret, err = ip.Run(fn, p, n)
			if err != nil {
				return err
			}
		} else {
			var err error
			ret, err = ip.Run(fn)
			if err != nil {
				return err
			}
		}
		fmt.Printf("%s", env.Out.String())
		fmt.Fprintf(os.Stderr, "; interp: @%s = %d (%d steps)\n", fn, ret, env.Steps)
		return nil
	}

	if c.odin {
		eng, err := core.New(m, c.engine.Options(core.Options{
			Workers: c.workers,
			// The module was parsed solely for this engine.
			AdoptModule: true,
		}))
		if err != nil {
			return err
		}
		// Close flushes the persistent store and rewrites the state
		// snapshot; without persistence it is a cheap no-op.
		defer eng.Close()
		// An interrupt must flush the same state: Close is Once-guarded, so
		// the deferred call above stays a no-op if the handler fires first.
		defer cli.CloseOnSignal("odin-run", eng.Close)()
		stop, err := c.engine.Serve(eng.Telemetry(), func() any { return eng.Snapshot() })
		if err != nil {
			return err
		}
		defer stop()
		if c.engine.MetricsAddr != "" && c.metricsHold > 0 {
			defer time.Sleep(c.metricsHold)
		}
		var exe *link.Executable
		var st *core.RebuildStats
		if c.supervise {
			sup := core.Supervise(eng, core.SupervisorOptions{})
			tk, err := sup.Sync()
			if err != nil {
				return err
			}
			res, err := tk.Wait(context.Background())
			if err != nil {
				return err
			}
			if res.Err != nil {
				return res.Err
			}
			exe, st = res.Exe, res.Stats
			sst := sup.Stats()
			if err := sup.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "; supervisor: gen %d, %d requests in %d generations (%.1fx coalesced), breaker %s\n",
				res.Gen, sst.Requests, sst.Generations, sst.CoalescingRatio, sst.Breaker)
		} else {
			var err error
			exe, st, err = eng.BuildAll()
			if err != nil {
				return err
			}
		}
		mach := vm.New(exe)
		ret, err := runOn(mach, fn, c.input)
		if err != nil {
			return err
		}
		fmt.Printf("%s", mach.Env.Out.String())
		linkMode := "full"
		if st.IncrementalLink {
			linkMode = "incremental"
		}
		fmt.Fprintf(os.Stderr,
			"; @%s = %d (%d cycles; odin: %d fragments, %d workers, %d cache hits; compile wall %v, serial-eq %v; link %v %s)\n",
			fn, ret, mach.Cycles, len(st.Fragments), st.Workers, st.CacheHits,
			st.CompileWall, st.SerialEquivalent(), st.LinkDur, linkMode)
		if c.engine.CacheDir != "" || c.engine.Snapshot != "" {
			fmt.Fprintf(os.Stderr, "; persist: %d/%d fragments warm, snapshot restored %v, image %016x\n",
				st.WarmHits, len(st.Fragments), eng.SnapshotRestored(), exe.Fingerprint())
		}
		return nil
	}

	exe, st, err := toolchain.BuildPreserving(m, c.level)
	if err != nil {
		return err
	}
	mach := vm.New(exe)
	ret, err := runOn(mach, fn, c.input)
	if err != nil {
		return err
	}
	fmt.Printf("%s", mach.Env.Out.String())
	fmt.Fprintf(os.Stderr, "; @%s = %d (%d cycles; build: opt %v, codegen %v, link %v)\n",
		fn, ret, mach.Cycles, st.Optimize, st.CodeGen, st.Link)
	return nil
}

// runOn executes fn on the machine, wiring the fuzz input buffer when the
// entry point is a fuzz target.
func runOn(mach *vm.Machine, fn, input string) (int64, error) {
	if fn == "fuzz_target" {
		p, n, err := mach.Env.WriteInput([]byte(input))
		if err != nil {
			return 0, err
		}
		return mach.Run(fn, p, n)
	}
	return mach.Run(fn)
}
