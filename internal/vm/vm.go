// Package vm executes linked machine code with a deterministic cycle cost
// model. It stands in for the hardware in the paper's evaluation: all
// "execution duration" metrics are cycle counts reported by this engine.
package vm

import (
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

	regs [mir.NumRegs]int64
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
// its hit vector are kept.
func (m *Machine) Rebind(exe *link.Executable) {
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

func (m *Machine) exec(entry int) (int64, error) {
	env := m.Env
	m.stack = m.stack[:0]
	fn := entry
	pc := 0
	code := m.Exe.Funcs[fn].Code

	for {
		if pc < 0 || pc >= len(code) {
			return 0, rt.Trapf("pc %d out of range in %s", pc, m.Exe.Funcs[fn].Name)
		}
		in := &code[pc]
		m.Cycles += in.Cycles()
		if err := env.Step(); err != nil {
			return 0, err
		}

		switch in.Op {
		case mir.Nop:
			pc++
		case mir.MovReg:
			m.regs[in.Rd] = m.regs[in.Rs1]
			pc++
		case mir.MovImm:
			m.regs[in.Rd] = in.Imm
			pc++
		case mir.ALU:
			v, err := interp.EvalBinOp(in.ALUOp, m.regs[in.Rs1], m.regs[in.Rs2], in.Width)
			if err != nil {
				return 0, err
			}
			m.regs[in.Rd] = v
			pc++
		case mir.ALUImm:
			v, err := interp.EvalBinOp(in.ALUOp, m.regs[in.Rs1], in.Imm, in.Width)
			if err != nil {
				return 0, err
			}
			m.regs[in.Rd] = v
			pc++
		case mir.CmpSet:
			if ir.EvalPred(in.Pred, m.regs[in.Rs1], m.regs[in.Rs2], in.Width) {
				m.regs[in.Rd] = 1
			} else {
				m.regs[in.Rd] = 0
			}
			pc++
		case mir.Ext:
			if in.SignExt {
				m.regs[in.Rd] = m.regs[in.Rs1]
			} else {
				m.regs[in.Rd] = int64(ir.ZeroExtend(m.regs[in.Rs1], in.Width))
			}
			pc++
		case mir.TruncW:
			m.regs[in.Rd] = ir.TruncToWidth(m.regs[in.Rs1], in.Width)
			pc++
		case mir.Load:
			v, err := env.Load(m.regs[in.Rs1]+in.Imm, in.Size)
			if err != nil {
				return 0, err
			}
			m.regs[in.Rd] = v
			pc++
		case mir.Store:
			if err := env.Store(m.regs[in.Rs1]+in.Imm, in.Size, m.regs[in.Rs2]); err != nil {
				return 0, err
			}
			pc++
		case mir.Lea:
			m.regs[in.Rd] = in.Imm
			pc++
		case mir.Jmp:
			pc = in.Target
			m.Cycles += TakenBranchPenalty
		case mir.JmpIf:
			if m.regs[in.Rs1] != 0 {
				pc = in.Target
				m.Cycles += TakenBranchPenalty
			} else {
				pc++
			}
		case mir.Call:
			if in.FuncIdx < 0 {
				bi := -(in.FuncIdx + 1)
				fnB := m.builtins[bi]
				if fnB == nil {
					return 0, rt.Trapf("builtin %q not registered", m.Exe.Builtins[bi])
				}
				m.Cycles += BuiltinCallCost
				copy(m.args[:], m.regs[:mir.MaxRegArgs])
				r, err := fnB(env, m.args[:])
				if err != nil {
					return 0, err
				}
				m.regs[0] = r
				pc++
				continue
			}
			if len(m.stack) >= maxCallDepth {
				return 0, rt.Trapf("call depth exceeded")
			}
			m.stack = append(m.stack, frame{fn: fn, pc: pc + 1, sp: m.regs[mir.SP]})
			fn = in.FuncIdx
			code = m.Exe.Funcs[fn].Code
			pc = 0
		case mir.Ret:
			if len(m.stack) == 0 {
				return m.regs[0], nil
			}
			fr := m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
			fn, pc = fr.fn, fr.pc
			m.regs[mir.SP] = fr.sp
			code = m.Exe.Funcs[fn].Code
		case mir.Enter:
			m.regs[mir.SP] -= in.Imm
			if m.regs[mir.SP] < rt.InputBase+rt.InputMax {
				return 0, rt.Trapf("stack overflow")
			}
			pc++
		case mir.Leave:
			m.regs[mir.SP] += in.Imm
			pc++
		case mir.Trap:
			return 0, rt.Trapf("trap executed in %s", m.Exe.Funcs[fn].Name)
		case mir.CostSim:
			pc++
		case mir.Probe:
			// Binary-instrumentation counter bump (saturating byte).
			env.Bump(in.ProbeAddr)
			pc++
		default:
			return 0, rt.Trapf("bad machine op %s", in.Op)
		}
	}
}

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
