package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"odin/internal/core"
	"odin/internal/cov"
	"odin/internal/fuzz"
	"odin/internal/progen"
	"odin/internal/rt"
)

// fuzzPrograms are the suite programs that complete a pruning campaign
// today. libxml2 and freetype2 are left out because their prune rebuilds
// fail to link (README.md, "the msg1.puts defect"); the traced run's
// suite-health probe counts them so a fix is visible.
var fuzzPrograms = []string{
	"libjpeg", "proj4", "libpng", "re2", "harfbuzz", "sqlite",
	"json", "vorbis", "lcms", "woff2", "x509",
}

// allPrograms is the full 13-program suite in progen's order.
func allPrograms() []string {
	var names []string
	for _, p := range progen.Suite() {
		names = append(names, p.Name)
	}
	return names
}

// campaign is the fuzz.Target of one OdinCov campaign: cmd/odin-fuzz's
// adapter with a stopwatch around it. The primary op is one execution as
// the fuzzer sees it (run, coverage check, and any prune it triggers); the
// alternate op is one prune that removed probes and so rebuilt the image.
type campaign struct {
	tool *cov.Tool
	tr   *tracer
	prog int
	seen int
	op   int

	lat, pruneLat *sample
	agg           *rebuildAgg
	arms          *arms
	prunes        int
	pruned        int
	busy          time.Duration
}

func (c *campaign) Execute(input []byte) (fuzz.Feedback, error) {
	t0 := time.Now()
	c.tr.setOp(c.op, c.prog)
	c.op++
	op := c.tr.begin(spOp)
	fb, err := c.execute(input)
	c.tr.end(op)
	d := time.Since(t0)
	c.lat.add(d)
	c.busy += d
	c.arms.add(c.tr.recording(), d)
	return fb, err
}

func (c *campaign) execute(input []byte) (fuzz.Feedback, error) {
	s := c.tr.begin(spRunInput)
	res := c.tool.RunInput(input)
	c.tr.end(s)
	fb := fuzz.Feedback{Cycles: res.Cycles}
	if res.Err != nil {
		var trap *rt.TrapError
		if errors.As(res.Err, &trap) {
			fb.Crashed = true
			return fb, nil
		}
		return fb, res.Err
	}
	s = c.tr.begin(spCoveredCount)
	n := c.tool.CoveredCount()
	c.tr.end(s)
	if n > c.seen {
		c.seen = n
		fb.NewCoverage = true
		before := len(c.tool.Rebuilds)
		t0 := time.Now()
		s = c.tr.begin(spMaybePrune)
		pruned, err := c.tool.MaybePrune()
		c.tr.end(s)
		if err != nil {
			return fb, err
		}
		if pruned > 0 {
			c.pruneLat.add(time.Since(t0))
			c.prunes++
			c.pruned += pruned
			for i := range c.tool.Rebuilds[before:] {
				c.agg.add(&c.tool.Rebuilds[before+i], false)
			}
		}
	}
	return fb, nil
}

// fuzzOptions are cmd/odin-fuzz's campaign settings.
func fuzzOptions(seed uint64) fuzz.Options {
	return fuzz.Options{
		Seed:       seed,
		MaxLen:     maxInputLen,
		Seeds:      [][]byte{{0x42, 0, 0, 0}, []byte("fuzzing seed")},
		Dictionary: [][]byte{{0x42, 0x55, 0x47}},
	}
}

// newCovTool generates the program afresh and builds its OdinCov target the
// way cmd/odin-fuzz does.
func newCovTool(prof progen.Profile) (*cov.Tool, error) {
	return cov.New(prof.Generate(), core.Options{Variant: core.VariantOdin}, true)
}

// suiteHealth runs a short pruning campaign on every suite program and
// reports the ones that fail, so a defect that keeps a program out of
// fuzzPrograms stays counted.
func suiteHealth(r *run) {
	var failed []string
	for _, prof := range progen.Suite() {
		name := prof.Name
		tool, err := newCovTool(prof)
		if err == nil {
			var lat, pruneLat sample
			c := &campaign{tool: tool, lat: &lat, pruneLat: &pruneLat, agg: &rebuildAgg{}, arms: &arms{}}
			_, err = fuzz.New(c, fuzzOptions(r.cfg.seed)).Run(r.sz.healthExecs)
			tool.Engine.Close()
		}
		if err != nil {
			failed = append(failed, name)
			fmt.Fprintf(r.log, "suite-health: %s fails a pruning campaign: %v\n", name, err)
		}
	}
	r.ms.set("cov.prune_programs_failed", float64(len(failed)))
}

func fuzzCampaign(r *run) (*outcome, error) {
	if r.cfg.trace {
		suiteHealth(r)
	}
	out, err := r.load(fuzzPrograms)
	if err != nil {
		return nil, err
	}
	progs := out.programs

	// Set-up: generate, partition, instrument every block and cold-build
	// each campaign's target. One repetition is well under a second, so it
	// is repeated on fresh state and the last repetition's tools are used.
	nSeeds := r.sz.fuzzSeeds
	tools := make([]*cov.Tool, len(progs)*nSeeds)
	closeTools := func() error {
		for i, tool := range tools {
			tool.Engine.Close()
			tools[i] = nil
		}
		return nil
	}
	err = out.repeatSetup(r.sz.fuzzSetupReps, closeTools, func() error {
		for i := range tools {
			p := progs[i/nSeeds]
			if tools[i], err = newCovTool(p.prof); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	execsPer := r.sz.fuzzIters + 2 // the two seed inputs run first
	tr := r.tracer(len(tools) * execsPer * 2)
	out.primary = make([]sample, len(progs))
	out.alt = make([]sample, len(progs))
	for i := range progs {
		out.primary[i] = make(sample, 0, nSeeds*execsPer)
	}
	agg := &rebuildAgg{}
	camps := make([]*campaign, len(tools))
	fuzzers := make([]*fuzz.Fuzzer, len(tools))
	for i, tool := range tools {
		pi := i / nSeeds
		camps[i] = &campaign{tool: tool, tr: tr, prog: pi, op: i * execsPer,
			lat: &out.primary[pi], pruneLat: &out.alt[pi], agg: agg, arms: &out.overhead}
		fuzzers[i] = fuzz.New(camps[i], fuzzOptions(r.cfg.seed*7919+uint64(i)))
	}

	// Measured phase: every campaign, one after another, on one goroutine.
	runtime.GC()
	mark := markAllocs()
	var busy time.Duration
	corpus, crashes := 0, 0
	var campaignCycles int64
	t0 := time.Now()
	for i, f := range fuzzers {
		tr.record(i%2 == 0) // the other seed of each program runs untraced
		stats, err := f.Run(r.sz.fuzzIters)
		if err != nil {
			return nil, fmt.Errorf("%s campaign %d: %w", progs[i/nSeeds].name, i%nSeeds, err)
		}
		out.ops += stats.Execs
		campaignCycles += stats.TotalCycles
		corpus += stats.CorpusSize
		crashes += stats.Crashes
		busy += camps[i].busy
	}
	out.wall = time.Since(t0)
	mark.report(r.ms, out.ops)
	r.attempted = out.ops

	// Checks, after the clock has stopped: each campaign's final image,
	// partly pruned, still computes what the interpreter computes. The
	// cycles of that replay are Fig. 8's OdinCov bar, what an execution
	// costs once coverage has saturated. (The campaigns' own cycles per
	// exec include the pruning transient but follow the mutator's luck: they
	// move by 8% between seeds, the replay by under 2%; they are reported
	// as cov.campaign_cycles_per_exec.)
	active, prunes, pruned := 0, 0, 0
	for i, tool := range tools {
		p := progs[i/nSeeds]
		cy, err := p.replay(tool.Executable())
		if err != nil {
			r.fail(1, "final image: %v", err)
		}
		out.cycles += cy
		out.execs += int64(len(p.inputs))
		c, f := camps[i], fuzzers[i]
		tag := fmt.Sprintf("c%d.", i%nSeeds)
		r.pin(p.name, tag+"execs", f.Stats.Execs)
		r.pin(p.name, tag+"corpus", f.Stats.CorpusSize)
		r.pin(p.name, tag+"covered", tool.CoveredCount())
		r.pin(p.name, tag+"crashes", f.Stats.Crashes)
		r.pin(p.name, tag+"prunes", c.prunes)
		active += tool.ActiveProbes()
		prunes += c.prunes
		pruned += c.pruned
		if err := tool.Engine.Close(); err != nil {
			return nil, err
		}
	}

	ms := r.ms
	agg.report(ms, prunes)
	ms.set("cov.campaign_cycles_per_exec", float64(campaignCycles)/float64(out.ops))
	ms.set("cov.prune_rebuilds", float64(prunes))
	ms.set("cov.pruned_probes", float64(pruned))
	ms.set("cov.active_probes_end", float64(active))
	ms.set("fuzz.mutate_share_pct", pct(float64(out.wall-busy), float64(out.wall)))
	ms.set("fuzz.corpus_size", float64(corpus))
	fmt.Fprintf(r.log, "fuzz-campaign: %d execs, %d prune rebuilds, %d crashes, corpus %d\n",
		out.ops, prunes, crashes, corpus)
	return out, nil
}
