package main

import (
	"fmt"
	"runtime"
	"time"

	"odin/internal/core"
	"odin/internal/prng"
)

// togglePrograms, and why each: sqlite has one huge interpreter function
// (the worst-case fragment), harfbuzz is bound by interprocedural
// optimisation and has large bonded fragments, re2 has the most functions
// and fragments, json is template bloat with tiny functions, libjpeg barely
// notices partitioning, and x509, libpng and lcms fill in the middle.
var togglePrograms = []string{
	"sqlite", "harfbuzz", "re2", "json", "x509", "libjpeg", "libpng", "lcms",
}

// batchWidth is how many functions the alternate op flips in one schedule.
const batchWidth = 8

// altEvery: one batch cycle follows every altEvery-th toggle cycle of a
// program, so the two ops interleave and see the same machine.
const altEvery = 8

// toggler is one long-lived engine and the probes placed on it so far. A
// function's probe is registered the first time it is enabled and re-enabled
// afterwards, as a fuzzer or the serve layer reuses a probe.
type toggler struct {
	prog *program
	eng  *core.Engine
	fns  []string
	ids  map[string]int
	// singles and batches deal the targets of the two ops separately, so
	// neither op's sequence depends on how often the other runs.
	singles, batches *deck
}

func newToggler(p *program) (*toggler, error) {
	eng, err := core.New(p.prof.Generate(), core.Options{ExtraBuiltins: []string{benchHook}, AdoptModule: true})
	if err != nil {
		return nil, err
	}
	if _, _, err := eng.BuildAll(); err != nil {
		eng.Close()
		return nil, err
	}
	fns := probeTargets(eng.Pristine)
	return &toggler{prog: p, eng: eng, fns: fns, ids: map[string]int{},
		singles: newDeck(len(fns)), batches: newDeck(len(fns))}, nil
}

// choose draws the targets of one op: one function, or a batch of
// batchWidth distinct ones.
func (t *toggler) choose(rng *prng.RNG, batch bool) []string {
	d, n := t.singles, 1
	if batch {
		d, n = t.batches, min(batchWidth, len(t.fns))
	}
	out := make([]string, n)
	for i, fi := range d.deal(rng, n) {
		out[i] = t.fns[fi]
	}
	return out
}

func (t *toggler) rebuild(tr *tracer, agg *rebuildAgg, alt bool) error {
	s := tr.begin(spSchedule)
	sched, err := t.eng.Schedule()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(spRebuild)
	_, st, err := sched.Rebuild()
	tr.end(s)
	if err != nil {
		return err
	}
	if agg != nil {
		agg.add(st, alt)
	}
	return nil
}

func (t *toggler) setProbes(tr *tracer, fns []string, active bool) error {
	for _, fn := range fns {
		name := spRemove
		if active {
			name = spAdd
		}
		s := tr.begin(name)
		id, known := t.ids[fn]
		var err error
		switch {
		case !active:
			err = t.eng.Manager.Remove(id)
		case known:
			err = t.eng.Manager.SetActive(id, true)
		default:
			t.ids[fn] = t.eng.Manager.Add(&entryProbe{fn: fn})
		}
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// cycle is one op: probes on, new executable, probes off, new executable.
func (t *toggler) cycle(tr *tracer, agg *rebuildAgg, fns []string, alt bool) error {
	if err := t.setProbes(tr, fns, true); err != nil {
		return err
	}
	if err := t.rebuild(tr, agg, alt); err != nil {
		return err
	}
	if err := t.setProbes(tr, fns, false); err != nil {
		return err
	}
	return t.rebuild(tr, agg, alt)
}

// setupTogglers is one set-up repetition: cold-build every engine, then a
// fixed warm-up so first-touch costs (lazy pools, linker state, the second
// analysis-cache generation) are paid before the clock starts.
func setupTogglers(progs []*program, rng *prng.RNG, warm int) ([]*toggler, error) {
	ts := make([]*toggler, len(progs))
	for i, p := range progs {
		t, err := newToggler(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		ts[i] = t
	}
	for c := 0; c < warm; c++ {
		for _, t := range ts {
			if err := t.cycle(nil, nil, t.choose(rng, c%altEvery == altEvery-1), false); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", t.prog.name, err)
			}
		}
	}
	return ts, nil
}

func toggleSteady(r *run) (*outcome, error) {
	out, err := r.load(togglePrograms)
	if err != nil {
		return nil, err
	}
	rng := prng.NewRNG(r.cfg.seed ^ 0x746f67676c65)

	var ts []*toggler
	closeAll := func() error {
		for _, t := range ts {
			t.eng.Close()
		}
		ts = nil
		return nil
	}
	err = out.repeatSetup(r.sz.toggleSetupReps, closeAll, func() error {
		ts, err = setupTogglers(out.programs, rng, r.sz.toggleWarm)
		return err
	})
	if err != nil {
		return nil, err
	}

	cycles := r.sz.toggleCycles
	nAlt := cycles / altEvery
	tr := r.tracer(len(ts) * (cycles*8 + nAlt*(4+2*batchWidth)))
	out.primary = make([]sample, len(ts))
	out.alt = make([]sample, len(ts))
	for i := range ts {
		out.primary[i] = make(sample, 0, cycles)
		out.alt[i] = make(sample, 0, nAlt)
	}
	agg := &rebuildAgg{}

	// Measured phase: the programs take turns cycle by cycle, so a shift of
	// the machine lands on all of them alike.
	runtime.GC()
	mark := markAllocs()
	opID := 0
	t0 := time.Now()
	for c := 0; c < cycles; c++ {
		tr.record(c/altEvery%2 == 0)
		for i, t := range ts {
			fns := t.choose(rng, false)
			start := time.Now()
			tr.setOp(opID, i)
			s := tr.begin(spOp)
			err := t.cycle(tr, agg, fns, false)
			tr.end(s)
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s toggle @%s: %w", t.prog.name, fns[0], err)
			}
			out.primary[i].add(d)
			out.overhead.add(tr.recording(), d)
			opID++
		}
		if c%altEvery != altEvery-1 {
			continue
		}
		for i, t := range ts {
			fns := t.choose(rng, true)
			start := time.Now()
			tr.setOp(opID, i)
			s := tr.begin(spAltOp)
			err := t.cycle(tr, agg, fns, true)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("%s batch toggle: %w", t.prog.name, err)
			}
			out.alt[i].add(time.Since(start))
			opID++
		}
	}
	out.wall = time.Since(t0)
	out.ops = cycles * len(ts)
	mark.report(r.ms, out.ops)
	r.attempted = opID

	// Checks, after the clock has stopped. With every probe removed the
	// long-lived image must be the cold build's, byte for byte, and compute
	// what the interpreter computes (its cycles are the partition overhead
	// of Fig. 10). Then a seeded probe set goes on and must again equal a
	// cold build carrying the same probes.
	for _, t := range ts {
		p := t.prog
		cy, err := p.replay(t.eng.Executable())
		if err != nil {
			r.fail(1, "unprobed image: %v", err)
		}
		out.cycles += cy
		out.execs += int64(len(p.inputs))
		sameAsCold := func(fns []string) error {
			cold, err := coldImage(p, fns)
			if err != nil {
				return fmt.Errorf("%s cold reference: %w", p.name, err)
			}
			if got, want := t.eng.Executable().Fingerprint(), cold.Fingerprint(); got != want {
				r.fail(1, "%s: image %016x after %d toggles differs from the cold build %016x of the same %d probes",
					p.name, got, cycles, want, len(fns))
			}
			return nil
		}
		if err := sameAsCold(nil); err != nil {
			return nil, err
		}
		fns := t.choose(rng, true)
		if err := t.setProbes(nil, fns, true); err != nil {
			return nil, err
		}
		if err := t.rebuild(nil, nil, false); err != nil {
			return nil, err
		}
		if err := sameAsCold(fns); err != nil {
			return nil, err
		}
		if _, err := p.replay(t.eng.Executable()); err != nil {
			r.fail(1, "image with %d probes: %v", len(fns), err)
		}
		if err := t.eng.Close(); err != nil {
			return nil, err
		}
		runtime.GC() // each replay's 8 MiB machine is harness garbage; keep it out of peak_rss_mb
	}

	agg.report(r.ms, out.ops)
	return out, nil
}
