package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"odin/internal/core"
	"odin/internal/cov"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/link"
)

// suiteStart is one start of a program from its textual IR: parse,
// partition, probe every block (OdinCov-NoPrune), build. With dir empty
// nothing persists: the cold start. With a directory the engine writes
// through to it, or, when an earlier start populated it, restores its
// snapshot and serves every fragment from disk: the warm restart. The
// caller closes the engine.
func suiteStart(tr *tracer, p *program, text, dir string) (*cov.Tool, error) {
	s := tr.begin(spParse)
	m, err := irtext.Parse(p.name, text)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Variant: core.VariantOdin, AdoptModule: true}
	if dir != "" {
		opts.CacheDir = filepath.Join(dir, "cache")
		opts.SnapshotPath = filepath.Join(dir, "state.snap")
	}
	s = tr.begin(spCovNew)
	tool, err := cov.New(m, opts, false)
	tr.end(s)
	return tool, err
}

// suiteProgram is one program's textual IR and its populated directory.
type suiteProgram struct {
	*program
	text, dir string
	image     uint64 // fingerprint every start of this program must produce
	written   uint64 // bytes the populating start published
}

// setupSuite is one set-up repetition: generate the suite and print it to
// the text the starts parse, then populate a fresh directory per program by
// a write-through start, and restart from it once. The persist write path
// (two fsyncs per fragment) is paid here and in persist.put_us, not in the
// measured phase: on this box its latency swings by a third from run to run
// and would bury the compile pipeline the cold start is there to show.
func setupSuite(r *run, progs []*program) ([]*suiteProgram, error) {
	sps := make([]*suiteProgram, len(progs))
	for i, p := range progs {
		dir, err := r.tempDir("suite-*")
		if err != nil {
			return nil, err
		}
		sp := &suiteProgram{program: p, text: ir.Print(p.prof.Generate()), dir: dir}
		for _, populated := range []bool{false, true} {
			tool, err := suiteStart(nil, p, sp.text, dir)
			if err == nil {
				err = tool.Engine.Close()
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			if !populated {
				sp.image = tool.Executable().Fingerprint()
				if ps, ok := tool.Engine.PersistStats(); ok {
					sp.written = ps.BytesWritten
				}
			} else if got := tool.Executable().Fingerprint(); got != sp.image {
				return nil, fmt.Errorf("%s: first warm restart gives image %016x, the start that populated it %016x", p.name, got, sp.image)
			}
		}
		sps[i] = sp
	}
	return sps, nil
}

func suiteBuild(r *run) (*outcome, error) {
	out, err := r.load(allPrograms())
	if err != nil {
		return nil, err
	}
	var sps []*suiteProgram
	removeDirs := func() error {
		for _, sp := range sps {
			if err := os.RemoveAll(sp.dir); err != nil {
				return err
			}
		}
		sps = nil
		return nil
	}
	err = out.repeatSetup(r.sz.suiteSetupReps, removeDirs, func() error {
		sps, err = setupSuite(r, out.programs)
		return err
	})
	if err != nil {
		return nil, err
	}

	rounds := r.sz.suiteRounds
	tr := r.tracer(rounds * len(sps) * 10)
	out.primary = make([]sample, len(sps))
	out.alt = make([]sample, len(sps))
	for i := range sps {
		out.primary[i] = make(sample, 0, rounds)
		out.alt[i] = make(sample, 0, rounds)
	}
	var agg rebuildAgg
	var warmHits, warmFrags int
	var fallbacks uint64
	coldImages := make([]*link.Executable, len(sps))
	opID := 0

	// Measured phase: round by round, every program cold-starts and then
	// warm-restarts, so both ops of all programs see the same machine.
	runtime.GC()
	mark := markAllocs()
	t0 := time.Now()
	for round := 0; round < rounds; round++ {
		tr.record(round%2 == 0)
		for i, sp := range sps {
			for _, warm := range []bool{false, true} {
				name, dir := spOp, ""
				if warm {
					name, dir = spAltOp, sp.dir
				}
				start := time.Now()
				tr.setOp(opID, i)
				opID++
				s := tr.begin(name)
				tool, err := suiteStart(tr, sp.program, sp.text, dir)
				tr.end(s)
				d := time.Since(start)
				// The op ends when the executable exists. Close rewrites the
				// snapshot (two fsyncs) and runs inside the phase, so
				// ops_per_s pays for it, but outside the op's stopwatch:
				// fsync latency swings too much here to sit in a median.
				if err == nil {
					s = tr.begin(spClose)
					err = tool.Engine.Close()
					tr.end(s)
				}
				if err != nil {
					return nil, fmt.Errorf("%s round %d (warm=%v): %w", sp.name, round, warm, err)
				}
				if got := tool.Executable().Fingerprint(); got != sp.image {
					r.fail(1, "%s round %d (warm=%v): image %016x, want %016x", sp.name, round, warm, got, sp.image)
				}
				build := &tool.Rebuilds[0]
				agg.add(build, warm)
				if !warm {
					out.primary[i].add(d)
					out.overhead.add(tr.recording(), d)
					coldImages[i] = tool.Executable()
					continue
				}
				out.alt[i].add(d)
				warmHits += build.WarmHits
				warmFrags += len(build.Fragments)
				if ps, ok := tool.Engine.PersistStats(); ok {
					fallbacks += ps.Fallbacks
				}
			}
		}
	}
	out.wall = time.Since(t0)
	out.ops = rounds * len(sps)
	mark.report(r.ms, out.ops)
	r.attempted = 2 * out.ops

	// Checks, after the clock has stopped. The fully instrumented cold image
	// is Fig. 8's OdinCov-NoPrune: it must compute what the interpreter
	// computes, and its cycles are what full block coverage costs.
	var written uint64
	for i, sp := range sps {
		cy, err := sp.replay(coldImages[i])
		if err != nil {
			r.fail(1, "cold image: %v", err)
		}
		out.cycles += cy
		out.execs += int64(len(sp.inputs))
		written += sp.written
	}
	if err := removeDirs(); err != nil {
		return nil, err
	}
	if warmHits != warmFrags {
		r.fail(1, "warm restarts hit the store for %d of %d fragments", warmHits, warmFrags)
	}

	ms := r.ms
	agg.report(ms, out.ops)
	ms.set("persist.warm_hit_pct", pct(float64(warmHits), float64(warmFrags)))
	ms.set("persist.fallbacks", float64(fallbacks))
	ms.set("persist.bytes_written", float64(written)/float64(len(sps)))
	return out, nil
}
