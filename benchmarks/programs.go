package main

import (
	"errors"
	"fmt"

	"odin/internal/core"
	"odin/internal/interp"
	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/prng"
	"odin/internal/progen"
	"odin/internal/rt"
	"odin/internal/vm"
)

// benchHook is the runtime symbol the harness's own probes call.
const benchHook = "__bench_hit"

// execResult is what one execution of a program on one input must produce,
// whichever way the program was compiled and instrumented.
type execResult struct {
	ret     int64
	out     string
	trapped bool
}

// program is one suite program with its seeded replay inputs and, for each,
// the result the IR interpreter gives on the pristine module. The
// interpreter is the independent reference: it shares no code with the
// optimizer, the back end, the linker or the VM dispatch loop.
type program struct {
	name   string
	prof   progen.Profile
	mod    *ir.Module // pristine; engines clone it, nothing adopts it
	kinstr float64    // pristine IR instructions / 1000
	inputs [][]byte
	ref    []execResult
}

// maxInputLen is the longest replay input; cmd/odin-fuzz caps its inputs
// at the same length.
const maxInputLen = 32

// genInputs draws n fuzz-shaped inputs. The two properties an execution's
// cost depends on most are stratified rather than drawn: the first byte
// (it selects the parser) walks all 256 values in turn, and the lengths are
// dealt from a shuffle of 1..maxInputLen. Every seed then spreads its
// inputs over parsers and loop counts alike, so the cycle count of a replay
// varies little with the seed. The other bytes are random and drive the
// magic checks and branches.
func genInputs(rng *prng.RNG, n int) [][]byte {
	out := make([][]byte, n)
	first := rng.Intn(256)
	lengths := newDeck(maxInputLen)
	for i := range out {
		b := make([]byte, 1+lengths.deal(rng, 1)[0])
		b[0] = byte(first + i)
		for j := 1; j < len(b); j++ {
			b[j] = rng.Byte()
		}
		out[i] = b
	}
	return out
}

// loadPrograms generates the named suite programs, their share of the
// run's replay inputs from seed, and the interpreter's reference results.
func loadPrograms(names []string, seed uint64, replayInputs int) ([]*program, error) {
	nInputs := max(replayInputs/len(names), 1)
	var out []*program
	for i, name := range names {
		prof, ok := progen.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown suite program %q", name)
		}
		p := &program{name: name, prof: prof, mod: prof.Generate()}
		p.kinstr = float64(p.mod.NumInstrs()) / 1000
		p.inputs = genInputs(prng.NewRNG(seed*1000003+uint64(i)+1), nInputs)
		for _, in := range p.inputs {
			ret, out, err := interp.RunProgram(p.mod, in)
			r := execResult{ret: ret, out: out}
			if err != nil {
				var trap *rt.TrapError
				if !errors.As(err, &trap) {
					return nil, fmt.Errorf("%s: reference interpreter: %w", name, err)
				}
				r = execResult{trapped: true}
			}
			p.ref = append(p.ref, r)
		}
		out = append(out, p)
	}
	return out, nil
}

// refHash folds the reference results into one value for expected.json.
func (p *program) refHash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = ir.HashFold(h, v) }
	for _, r := range p.ref {
		mix(uint64(r.ret))
		mix(uint64(len(r.out)))
		for i := 0; i < len(r.out); i++ {
			mix(uint64(r.out[i]))
		}
		if r.trapped {
			mix(1)
		}
	}
	return h
}

// replay runs the program's inputs on a compiled image and holds every
// result to the interpreter's. It returns the deterministic cycle total.
func (p *program) replay(exe *link.Executable) (cycles int64, err error) {
	mach := vm.New(exe)
	// Probe hooks count nothing here: the check is on (ret, out) only.
	nop := func(*rt.Env, []int64) (int64, error) { return 0, nil }
	for _, name := range exe.Builtins {
		if _, ok := mach.Env.Builtins[name]; !ok {
			mach.Env.Builtins[name] = nop
		}
	}
	for i, in := range p.inputs {
		ret, out, cy, rerr := vm.RunProgram(mach, in)
		cycles += cy
		got := execResult{ret: ret, out: out}
		if rerr != nil {
			var trap *rt.TrapError
			if !errors.As(rerr, &trap) {
				return cycles, fmt.Errorf("%s input %d: %w", p.name, i, rerr)
			}
			got = execResult{trapped: true}
		}
		if got != p.ref[i] {
			return cycles, fmt.Errorf("%s input %d: compiled image gives %+v, interpreter %+v", p.name, i, got, p.ref[i])
		}
	}
	return cycles, nil
}

// deck deals the numbers 0..n-1 from a seeded shuffle and reshuffles when too
// few are left, so each comes up equally often whatever the seed. The
// workloads pick their probe targets this way: independent draws would leave
// each run's medians to the luck of how often its expensive functions came
// up.
type deck struct {
	order []int
	next  int
}

func (d *deck) deal(rng *prng.RNG, n int) []int {
	if d.next+n > len(d.order) {
		for i := len(d.order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			d.order[i], d.order[j] = d.order[j], d.order[i]
		}
		d.next = 0
	}
	out := d.order[d.next : d.next+n]
	d.next += n
	return out
}

func newDeck(n int) *deck {
	d := &deck{order: make([]int, n), next: n}
	for i := range d.order {
		d.order[i] = i
	}
	return d
}

// entryProbe instruments its target's entry block with a call to benchHook,
// the shape of the serve layer's counter probe and the fuzzing tools'
// coverage probes. It resolves the target by name, so one value applies to
// any engine over the same program.
type entryProbe struct{ fn string }

func (p *entryProbe) PatchTarget() string { return p.fn }

func (p *entryProbe) Instrument(s *core.Sched) error {
	f := s.MapFunc(p.fn)
	if f == nil {
		return fmt.Errorf("benchmarks: @%s not in recompilation", p.fn)
	}
	nb := f.Blocks[0]
	hook := s.LookupFunction(benchHook, &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(nb, len(nb.Phis()))
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, 1))
	return nil
}

// probeTargets lists the functions a probe can be placed on: defined and
// non-empty, the same rule the serve layer applies.
func probeTargets(m *ir.Module) []string {
	var out []string
	for _, f := range m.Funcs {
		if !f.IsDecl() && len(f.Blocks) > 0 {
			out = append(out, f.Name)
		}
	}
	return out
}

// coldImage builds a fresh engine over p with a probe on each of fns and
// returns its image: the reference a long-lived engine's image must equal.
func coldImage(p *program, fns []string) (*link.Executable, error) {
	eng, err := core.New(p.mod, core.Options{ExtraBuiltins: []string{benchHook}})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	for _, fn := range fns {
		eng.Manager.Add(&entryProbe{fn: fn})
	}
	exe, _, err := eng.BuildAll()
	return exe, err
}
