package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
	"unsafe"

	"odin/internal/codegen"
	"odin/internal/core"
	"odin/internal/cov"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/link"
	"odin/internal/mir"
	"odin/internal/obj"
	"odin/internal/opt"
	"odin/internal/persist"
	"odin/internal/sancov"
	"odin/internal/toolchain"
	"odin/internal/vm"
)

// best times f reps times and returns the fastest run in µs: the unit cost
// of a layer is what it takes when nothing else interferes.
func best(reps int, f func() error) (float64, error) {
	fastest := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := us(time.Since(t0)); i == 0 || d < fastest {
			fastest = d
		}
	}
	return fastest, nil
}

// layersPhase runs after the clock has stopped, in the traced run only. It
// calls each layer's public entry point directly on the workload's own
// programs for the unit costs the span tree cannot separate, normalised per
// 1000 pristine IR instructions (summed over the programs, which is the
// least-squares line through the origin weighted by size). Every image it
// builds is also held to the interpreter.
func layersPhase(r *run, progs []*program) error {
	reps := r.sz.layerReps
	dir, err := r.tempDir("layers-*")
	if err != nil {
		return err
	}
	builtins := toolchain.StdBuiltins()
	ctx := context.Background()

	perK := map[string]float64{} // µs summed over programs, by metric
	var kinstr, instrsIn, instrsOut, mirInstrs, imageBytes, frags, fragFuncs float64
	var baseCycles, sancovCycles, odinCycles int64
	var execTime time.Duration
	var execCycles int64
	geo := map[string][]float64{} // per-program values, by metric

	for pi, p := range progs {
		kinstr += p.kinstr
		timeK := func(metric string, f func() error) error {
			d, err := best(reps, f)
			perK[metric] += d
			if err != nil {
				return fmt.Errorf("%s: %s: %w", p.name, metric, err)
			}
			return nil
		}
		timeGeo := func(metric string, n int, f func() error) error {
			d, err := best(n, f)
			geo[metric] = append(geo[metric], d)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", p.name, metric, err)
			}
			return nil
		}

		// irtext and ir.
		var text string
		if err := timeK("irtext.print_us_per_kinstr", func() error { text = ir.Print(p.mod); return nil }); err != nil {
			return err
		}
		if err := timeK("irtext.parse_us_per_kinstr", func() error { _, err := irtext.Parse(p.name, text); return err }); err != nil {
			return err
		}
		if err := timeK("ir.clone_us_per_kinstr", func() error { ir.CloneModule(p.mod); return nil }); err != nil {
			return err
		}
		if err := timeK("ir.fingerprint_us_per_kinstr", func() error { ir.Fingerprint(p.mod); return nil }); err != nil {
			return err
		}
		if err := timeK("ir.verify_strict_us_per_kinstr", func() error { return ir.VerifyStrict(p.mod) }); err != nil {
			return err
		}

		// opt → codegen → link: the whole-module toolchain, which is also
		// the uninstrumented baseline of the overhead ratios.
		var object *obj.Object
		var baseline *link.Executable
		var optUS, cgUS, linkUS sample
		for rep := 0; rep < reps; rep++ {
			m, _ := ir.CloneModule(p.mod)
			t0 := time.Now()
			opt.Optimize(m, &opt.Options{Level: 2})
			t1 := time.Now()
			if object, err = codegen.CompileModuleOpts(m, codegen.Options{}); err != nil {
				return fmt.Errorf("%s: codegen: %w", p.name, err)
			}
			t2 := time.Now()
			if baseline, err = link.Link([]*obj.Object{object}, builtins); err != nil {
				return fmt.Errorf("%s: link: %w", p.name, err)
			}
			optUS.add(t1.Sub(t0))
			cgUS.add(t2.Sub(t1))
			linkUS.add(time.Since(t2))
			if rep == 0 {
				instrsIn += float64(p.mod.NumInstrs())
				instrsOut += float64(m.NumInstrs())
				mirInstrs += float64(object.CodeSize())
			}
		}
		perK["opt.optimize_us_per_kinstr"] += optUS.percentile(0)
		perK["codegen.compile_us_per_kinstr"] += cgUS.percentile(0)
		geo["link.full_us"] = append(geo["link.full_us"], linkUS.percentile(0))

		// persist: one object in, the same object out.
		store, err := persist.Open(filepath.Join(dir, fmt.Sprintf("store-%d", pi)), persist.Options{BuildID: "benchmarks"})
		if err != nil {
			return err
		}
		key := uint64(pi + 1)
		entry := &persist.Entry{Object: object, Level: 2, FuncHashes: map[string]uint64{}}
		if err := timeGeo("persist.put_us", reps, func() error {
			key += 1 << 32
			entry.Key = key
			return store.Put(key, entry)
		}); err != nil {
			return err
		}
		if err := timeGeo("persist.get_us", reps, func() error { _, err := store.Get(key); return err }); err != nil {
			return err
		}
		if err := store.Close(); err != nil {
			return err
		}

		// core: survey and partition, then the cold fragment build, on an
		// engine that persists like a serve shard does.
		var eng *core.Engine
		rep := 0
		if err := timeGeo("core.new_us", reps, func() error {
			if eng != nil {
				eng.Close()
			}
			rep++
			sub := filepath.Join(dir, fmt.Sprintf("eng-%d-%d", pi, rep))
			var err error
			eng, err = core.New(p.mod, core.Options{
				ExtraBuiltins: []string{benchHook},
				CacheDir:      filepath.Join(sub, "cache"),
				SnapshotPath:  filepath.Join(sub, "state.snap"),
			})
			return err
		}); err != nil {
			return err
		}
		if err := timeGeo("core.buildall_us", 1, func() error { _, _, err := eng.BuildAll(); return err }); err != nil {
			return err
		}
		if err := timeGeo("persist.snapshot_save_us", reps, eng.SaveSnapshot); err != nil {
			return err
		}
		exe := eng.Executable()
		if _, err := p.replay(exe); err != nil {
			r.fail(1, "layers: engine image: %v", err)
		}
		imageBytes += float64(len(exe.Data)) + float64(exe.CodeSize())*float64(unsafe.Sizeof(mir.Inst{}))
		frags += float64(len(eng.Plan.Fragments))
		for _, f := range eng.Plan.Fragments {
			for _, name := range f.Members {
				if fn := eng.Pristine.LookupFunc(name); fn != nil && !fn.IsDecl() {
					fragFuncs++
				}
			}
		}

		// supervisor: submit → resolve with no HTTP in front.
		sup := core.Supervise(eng, core.SupervisorOptions{})
		fns := probeTargets(eng.Pristine)
		var ticket sample
		for i := 0; i < r.sz.layerTickets; i++ {
			t0 := time.Now()
			id, tk, err := sup.AddProbe(&entryProbe{fn: fns[i%len(fns)]})
			if err == nil {
				_, err = tk.Wait(ctx)
			}
			ticket.add(time.Since(t0))
			if err == nil {
				t0 = time.Now()
				if tk, err = sup.RemoveProbe(id); err == nil {
					_, err = tk.Wait(ctx)
				}
				ticket.add(time.Since(t0))
			}
			if err != nil {
				return fmt.Errorf("%s: supervisor ticket: %w", p.name, err)
			}
		}
		geo["supervisor.ticket_us"] = append(geo["supervisor.ticket_us"], ticket.median())
		if err := sup.Close(); err != nil {
			return err
		}
		if err := eng.Close(); err != nil {
			return err
		}

		// vm: the fixed cost of an execution, then time per cycle.
		mach := vm.New(baseline)
		if err := timeGeo("vm.empty_exec_us", 8, func() error { _, _, _, err := vm.RunProgram(mach, nil); return err }); err != nil {
			return err
		}
		t0 := time.Now()
		cy, err := p.replay(baseline)
		execTime += time.Since(t0)
		execCycles += cy
		baseCycles += cy
		if err != nil {
			r.fail(1, "layers: baseline image: %v", err)
		}

		// cov: what full block coverage costs in cycles, against no
		// instrumentation and against SanCov's inline counters.
		sexe, _, err := sancov.Build(p.mod, 2)
		if err != nil {
			return fmt.Errorf("%s: sancov: %w", p.name, err)
		}
		if cy, err = p.replay(sexe); err != nil {
			r.fail(1, "layers: sancov image: %v", err)
		}
		sancovCycles += cy
		tool, err := cov.New(p.mod, core.Options{Variant: core.VariantOdin}, false)
		if err != nil {
			return fmt.Errorf("%s: cov: %w", p.name, err)
		}
		if cy, err = p.replay(tool.Executable()); err != nil {
			r.fail(1, "layers: OdinCov-NoPrune image: %v", err)
		}
		odinCycles += cy
		tool.Engine.Close()
	}

	ms := r.ms
	for metric, total := range perK {
		ms.set(metric, total/kinstr)
	}
	for metric, vals := range geo {
		ms.set(metric, geomean(vals))
	}
	n := float64(len(progs))
	ms.set("opt.instrs_out_per_in", ratio(instrsOut, instrsIn))
	ms.set("codegen.mir_instrs", mirInstrs/n)
	ms.set("link.image_bytes", imageBytes/n)
	ms.set("core.fragments", frags/n)
	ms.set("core.frag_funcs_mean", ratio(fragFuncs, frags))
	ms.set("cov.overhead_x_baseline", ratio(float64(odinCycles), float64(baseCycles)))
	ms.set("cov.overhead_x_sancov", ratio(float64(odinCycles), float64(sancovCycles)))
	// replay's vm.New allocates the machine; the empty-exec cost per input
	// is taken out so the remainder is dispatch time.
	inputs := 0
	for _, p := range progs {
		inputs += len(p.inputs)
	}
	dispatch := float64(execTime)/1e3 - float64(inputs)*ms.values["vm.empty_exec_us"]
	ms.set("vm.ns_per_cycle", 1e3*dispatch/float64(execCycles))
	if r.cfg.workload == "serve-mixed" {
		ms.set("serve.http_overhead_us", ms.values["op_p50_us"]-ms.values["supervisor.ticket_us"])
	}
	return nil
}
