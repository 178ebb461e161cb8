// Package vm executes linked machine code with a deterministic cycle cost
// model. It stands in for the hardware in the paper's evaluation: all
// "execution duration" metrics are cycle counts reported by this engine.
package vm

import (
	"math"

	"odin/internal/interp"
	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/mir"
	"odin/internal/rt"
)

// CallPenalty and TakenBranchPenalty are engine-level costs added on top of
// the per-instruction costs.
const (
	TakenBranchPenalty = 1
	BuiltinCallCost    = 8
)

// Machine executes one program image at a time and outlives the images it
// runs: Rebind moves it to the next one.
type Machine struct {
	Exe *link.Executable
	Env *rt.Env

	// Cycles is the accumulated cycle count across Run calls.
	Cycles int64

	regs [zeroReg + 1]int64
	// funcs is Exe's code in the form the dispatch loop runs, one entry
	// per function, built by Rebind.
	funcs []decoded
	// stack, builtins and args are exec's scratch, kept between runs so a
	// steady-state execution allocates nothing.
	stack    []frame
	builtins []rt.Builtin
	args     [mir.MaxRegArgs]int64
}

// New loads the executable's data segment into a fresh environment.
func New(exe *link.Executable) *Machine {
	m := &Machine{Env: rt.NewEnv()}
	m.Rebind(exe)
	return m
}

// Rebind points the machine at another image of the program, typically the
// one a rebuild just produced. Memory, output and counters are what
// New(exe) would hold; the Env itself, the builtins installed into it and
// its hit vector are kept. Only functions whose code slice is not the one
// the previous image ran are decoded again (link.Incremental shares
// unchanged objects' code), so an image's code must not change while bound.
func (m *Machine) Rebind(exe *link.Executable) {
	prev := m.funcs
	m.funcs = make([]decoded, len(exe.Funcs))
	for i, f := range exe.Funcs {
		if i < len(prev) && sameCode(prev[i].src, f.Code) {
			m.funcs[i] = prev[i]
		} else {
			m.funcs[i] = decode(f.Code)
		}
	}
	m.Exe = exe
	m.Env.LoadImage(exe.Data)
	m.Reset()
}

// Reset restores the pages the last execution wrote to the loaded image and
// clears output, steps and cycles; RunProgram does it before every input.
func (m *Machine) Reset() {
	m.Env.ResetMem()
	m.Env.Out.Reset()
	m.Env.Steps = 0
	m.Cycles = 0
}

// Counters returns a copy of the n bytes at addr: how the instrumenters read
// the coverage table their build placed in the data segment. A table outside
// memory means the metadata is of another build than the machine's image,
// and panics.
func (m *Machine) Counters(addr int64, n int) []byte {
	out := make([]byte, n)
	if err := m.Env.ReadMem(out, addr); err != nil {
		panic(err)
	}
	return out
}

type frame struct {
	fn int
	pc int
	sp int64
}

// Run executes the named exported function with up to six register
// arguments, returning the r0 result.
func (m *Machine) Run(name string, args ...int64) (int64, error) {
	fi, ok := m.Exe.Lookup(name)
	if !ok {
		return 0, rt.Trapf("no such function %q", name)
	}
	if len(args) > mir.MaxRegArgs {
		return 0, rt.Trapf("too many arguments")
	}
	for i := range m.regs {
		m.regs[i] = 0
	}
	for i, a := range args {
		m.regs[i] = a
	}
	m.regs[mir.SP] = rt.StackTop
	// Builtins resolve once per run, not per call; a hook installed into
	// Env.Builtins after New is picked up by the next run. A builtin the
	// image names but nobody registered stays nil and traps when called.
	m.builtins = m.builtins[:0]
	for _, name := range m.Exe.Builtins {
		m.builtins = append(m.builtins, m.Env.Builtins[name])
	}
	return m.exec(fi)
}

const maxCallDepth = 400

// exec runs the decoded code from entry. The cycle and step counters live in
// locals, written back before a builtin runs and when exec returns;
// Env.StepLimit is read once per run.
func (m *Machine) exec(entry int) (ret int64, err error) {
	env, regs := m.Env, &m.regs
	stack := m.stack[:0]
	fn, pc := entry, 0
	code := m.funcs[fn].code
	cycles, steps, limit := m.Cycles, env.Steps, env.StepLimit
	if limit <= 0 {
		limit = math.MaxInt64
	}
loop:
	for {
		d := &code[pc]
		cycles += d.cycles
		if steps++; steps > limit && d.op != opBadPC {
			err = rt.Trapf("step limit %d exceeded", env.StepLimit)
			break
		}
		switch d.op {
		case opNop:
		case opMov:
			regs[d.rd] = regs[d.rs1]
		case opMovImm:
			regs[d.rd] = d.imm
		case opAdd:
			regs[d.rd] = trunc(regs[d.rs1]+(regs[d.rs2]+d.imm), d.aux)
		case opSub:
			regs[d.rd] = trunc(regs[d.rs1]-(regs[d.rs2]+d.imm), d.aux)
		case opMul:
			regs[d.rd] = trunc(regs[d.rs1]*(regs[d.rs2]+d.imm), d.aux)
		case opAnd:
			regs[d.rd] = trunc(regs[d.rs1]&(regs[d.rs2]+d.imm), d.aux)
		case opOr:
			regs[d.rd] = trunc(regs[d.rs1]|(regs[d.rs2]+d.imm), d.aux)
		case opXor:
			regs[d.rd] = trunc(regs[d.rs1]^(regs[d.rs2]+d.imm), d.aux)
		case opALU:
			// Division traps and shifts mask: the source instruction says how.
			in := &m.funcs[fn].src[pc]
			if regs[d.rd], err = interp.EvalBinOp(in.ALUOp, regs[d.rs1], regs[d.rs2]+d.imm, in.Width); err != nil {
				break loop
			}
		case opCmpSet:
			var v int64
			if ir.EvalPred(ir.Pred(d.imm), regs[d.rs1], regs[d.rs2], ir.ScalarType(d.aux)) {
				v = 1
			}
			regs[d.rd] = v
		case opZext:
			regs[d.rd] = int64(ir.ZeroExtend(regs[d.rs1], ir.ScalarType(d.aux)))
		case opTrunc:
			regs[d.rd] = ir.TruncToWidth(regs[d.rs1], ir.ScalarType(d.aux))
		case opLoad:
			if regs[d.rd], err = env.Load(regs[d.rs1]+d.imm, d.aux); err != nil {
				break loop
			}
		case opStore:
			if err = env.Store(regs[d.rs1]+d.imm, d.aux, regs[d.rs2]); err != nil {
				break loop
			}
		case opJmp:
			pc = int(d.imm)
			cycles += TakenBranchPenalty
			continue
		case opJmpIf:
			if regs[d.rs1] != 0 {
				pc = int(d.imm)
				cycles += TakenBranchPenalty
				continue
			}
		case opBuiltin:
			fnB := m.builtins[d.imm]
			if fnB == nil {
				err = rt.Trapf("builtin %q not registered", m.Exe.Builtins[d.imm])
				break loop
			}
			m.Cycles, env.Steps = cycles+BuiltinCallCost, steps
			copy(m.args[:], regs[:mir.MaxRegArgs])
			regs[0], err = fnB(env, m.args[:])
			if cycles, steps = m.Cycles, env.Steps; err != nil {
				break loop
			}
		case opCall:
			if len(stack) >= maxCallDepth {
				err = rt.Trapf("call depth exceeded")
				break loop
			}
			stack = append(stack, frame{fn: fn, pc: pc + 1, sp: regs[mir.SP]})
			fn, pc, code = int(d.imm), 0, m.funcs[d.imm].code
			continue
		case opRet:
			if len(stack) == 0 {
				ret = regs[0]
				break loop
			}
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			fn, pc, code, regs[mir.SP] = fr.fn, fr.pc, m.funcs[fr.fn].code, fr.sp
			continue
		case opEnter:
			if regs[mir.SP] -= d.imm; regs[mir.SP] < rt.InputBase+rt.InputMax {
				err = rt.Trapf("stack overflow")
				break loop
			}
		case opLeave:
			regs[mir.SP] += d.imm
		case opTrap:
			err = rt.Trapf("trap executed in %s", m.Exe.Funcs[fn].Name)
			break loop
		case opProbe:
			env.Bump(d.imm) // binary instrumentation's saturating counter
		case opBadPC:
			steps-- // running off the code executes nothing
			err = rt.Trapf("pc %d out of range in %s", d.imm, m.Exe.Funcs[fn].Name)
			break loop
		default:
			err = rt.Trapf("bad machine op %s", m.funcs[fn].src[pc].Op)
			break loop
		}
		pc++
	}
	m.Cycles, env.Steps, m.stack = cycles, steps, stack
	return ret, err
}

// trunc sign-normalizes an ALU result to 64-sh bits (sh is taken mod 64, so
// a 64-bit result has 0 or 64).
func trunc(v, sh int64) int64 { return v << (sh & 63) >> (sh & 63) }

// RunProgram executes @fuzz_target(ptr,len) (or @main) on input and returns
// (result, output, cycles, error). The machine is reset first.
func RunProgram(mach *Machine, input []byte) (int64, string, int64, error) {
	mach.Reset()
	start := mach.Cycles
	var ret int64
	var err error
	if _, ok := mach.Exe.Lookup("fuzz_target"); ok {
		var p, n int64
		p, n, err = mach.Env.WriteInput(input)
		if err != nil {
			return 0, "", 0, err
		}
		ret, err = mach.Run("fuzz_target", p, n)
	} else {
		ret, err = mach.Run("main")
	}
	return ret, mach.Env.Out.String(), mach.Cycles - start, err
}
