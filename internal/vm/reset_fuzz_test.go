package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/mir"
	"odin/internal/rt"
)

// The reset contract, checked on generated images: after Reset a machine's
// memory equals a fresh New(exe)'s byte for byte, after Rebind(exe2) it
// equals New(exe2)'s, and every execution's (ret, out, cycles, err) is what
// a fresh machine gives. The generator is a byte code, one resetOp per
// 19 bytes, lowered straight to mir so that it can write where compiled IR
// never would.

const (
	opStore1 = iota
	opStore2
	opStore4
	opStore8
	opMemset // memset(a, b, n)
	opMemcpy // memcpy(a, b, n)
	opProbe  // counter bump at a
	opCall   // n nested calls, each with a one-page frame it stores b into
	opTrap
	opSpin // jump to self: ends in the step limit
	numResetOps

	// inMem reduces a and b into memory, so the fuzzer need not guess 23-bit
	// addresses; without it they are taken as they come, wild.
	inMem = 0x80

	resetOpLen    = 19
	resetStepsMax = 4000
)

func resetOp(kind byte, a, b int64, n int16) []byte {
	out := make([]byte, resetOpLen)
	out[0] = kind
	binary.LittleEndian.PutUint64(out[1:], uint64(a))
	binary.LittleEndian.PutUint64(out[9:], uint64(b))
	binary.LittleEndian.PutUint16(out[17:], uint16(n))
	return out
}

// resetHeader sizes the two images' data segments, in units of 5 bytes so
// that 16 bits reach past 300 KiB.
func resetHeader(data1, data2 uint16) []byte {
	return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16(nil, data1), data2)
}

// resetImages decodes prog into two images of one program: the second has
// the ops in reverse order and a data segment of its own length and bytes.
func resetImages(prog []byte) (exe1, exe2 *link.Executable) {
	var hdr [4]byte
	copy(hdr[:], prog)
	prog = prog[min(len(prog), len(hdr)):]
	var ops [][]mir.Inst
	for ; len(prog) >= resetOpLen && len(ops) < 64; prog = prog[resetOpLen:] {
		kind := prog[0]
		a := int64(binary.LittleEndian.Uint64(prog[1:]))
		b := int64(binary.LittleEndian.Uint64(prog[9:]))
		n := int64(int16(binary.LittleEndian.Uint16(prog[17:])))
		if kind&inMem != 0 {
			a, b = int64(uint64(a)%rt.MemSize), int64(uint64(b)%rt.MemSize)
		}
		movi := func(r mir.Reg, v int64) mir.Inst { return mir.Inst{Op: mir.MovImm, Rd: r, Imm: v} }
		k := (kind &^ inMem) % numResetOps
		switch k {
		case opStore1, opStore2, opStore4, opStore8:
			size := int64(1) << k
			ops = append(ops, []mir.Inst{movi(mir.R6, a), movi(mir.R7, b),
				{Op: mir.Store, Rs1: mir.R6, Rs2: mir.R7, Size: size}})
		case opMemset:
			ops = append(ops, []mir.Inst{movi(mir.R0, a), movi(mir.R1, b), movi(mir.R2, n*3),
				{Op: mir.Call, FuncIdx: -(1 + 1)}})
		case opMemcpy:
			ops = append(ops, []mir.Inst{movi(mir.R0, a), movi(mir.R1, b), movi(mir.R2, n*3),
				{Op: mir.Call, FuncIdx: -(0 + 1)}})
		case opProbe:
			ops = append(ops, []mir.Inst{{Op: mir.Probe, ProbeAddr: a}})
		case opCall:
			ops = append(ops, []mir.Inst{movi(mir.R0, n), movi(mir.R1, b), {Op: mir.Call, FuncIdx: 1}})
		case opTrap:
			ops = append(ops, []mir.Inst{{Op: mir.Trap}})
		case opSpin:
			ops = append(ops, nil) // the jump needs its own index: see below
		}
	}
	image := func(ops [][]mir.Inst, dataLen int, salt byte) *link.Executable {
		var code []mir.Inst
		for _, op := range ops {
			if op == nil {
				op = []mir.Inst{{Op: mir.Jmp, Target: len(code)}}
			}
			code = append(code, op...)
		}
		code = append(code, mir.Inst{Op: mir.MovImm, Rd: mir.R0, Imm: 7}, mir.Inst{Op: mir.Ret})
		data := make([]byte, dataLen)
		for i := range data {
			data[i] = byte(i)*7 + salt | 1 // never zero: a lost re-copy shows
		}
		return &link.Executable{
			Funcs: []link.Func{
				{Name: "fuzz_target", Code: code},
				// deep(depth, v) stores v at the base of a one-page frame and
				// across the page boundary below it, then recurses depth times.
				{Name: "deep", Code: []mir.Inst{
					{Op: mir.Enter, Imm: rt.PageSize},
					{Op: mir.Store, Rs1: mir.SP, Rs2: mir.R1, Size: 8},
					{Op: mir.Store, Rs1: mir.SP, Imm: -4, Rs2: mir.R1, Size: 8},
					{Op: mir.JmpIf, Rs1: mir.R0, Target: 5},
					{Op: mir.Jmp, Target: 7},
					{Op: mir.ALUImm, ALUOp: ir.OpSub, Width: ir.I64, Rd: mir.R0, Rs1: mir.R0, Imm: 1},
					{Op: mir.Call, FuncIdx: 1},
					{Op: mir.Leave, Imm: rt.PageSize},
					{Op: mir.Ret},
				}},
			},
			FuncIdx:  map[string]int{"fuzz_target": 0},
			Data:     data,
			Builtins: []string{"memcpy", "memset"},
		}
	}
	rev := make([][]mir.Inst, len(ops))
	for i, op := range ops {
		rev[len(ops)-1-i] = op
	}
	return image(ops, 5*int(binary.LittleEndian.Uint16(hdr[:])), 1),
		image(rev, 5*int(binary.LittleEndian.Uint16(hdr[2:])), 2)
}

// memDiff compares an environment's whole memory with what want fills in
// for each chunk, and describes the first difference.
func memDiff(env *rt.Env, want func(chunk []byte, addr int64) error) string {
	var got, exp [1 << 16]byte
	for addr := int64(0); addr < rt.MemSize; addr += int64(len(got)) {
		if err := env.ReadMem(got[:], addr); err != nil {
			return err.Error()
		}
		if err := want(exp[:], addr); err != nil {
			return err.Error()
		}
		if !bytes.Equal(got[:], exp[:]) {
			for i := range got {
				if got[i] != exp[i] {
					return fmt.Sprintf("memory differs at %#x: %#x, want %#x", addr+int64(i), got[i], exp[i])
				}
			}
		}
	}
	return ""
}

// pristine is the memory of an image nothing has run on, laid out by hand:
// zeros, with the data segment at GlobalBase.
func pristine(exe *link.Executable) func(chunk []byte, addr int64) error {
	return func(chunk []byte, addr int64) error {
		clear(chunk)
		if off := addr - rt.GlobalBase; off >= 0 && off < int64(len(exe.Data)) {
			copy(chunk, exe.Data[off:])
		} else if off < 0 && -off < int64(len(chunk)) {
			copy(chunk[-off:], exe.Data)
		}
		return nil
	}
}

type progResult struct {
	ret    int64
	out    string
	cycles int64
	err    string
}

func runResult(m *Machine, input []byte) progResult {
	ret, out, cycles, err := RunProgram(m, input)
	r := progResult{ret: ret, out: out, cycles: cycles}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func newLimited(exe *link.Executable) *Machine {
	m := New(exe)
	m.Env.StepLimit = resetStepsMax
	return m
}

func FuzzResetEquivalence(f *testing.F) {
	const page = rt.PageSize
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// Wild stores: the first and last storable bytes, then past every edge.
	f.Add(join(resetHeader(40, 9000),
		resetOp(opStore1, rt.NullGuard, 0x5a, 0),
		resetOp(opStore8, rt.MemSize-8, -1, 0),
		resetOp(opStore4, rt.StackTop-4, 0x01020304, 0),
		resetOp(opStore8, 0x7ffffffffffffff9, 1, 0)), []byte("in"))
	f.Add(join(resetHeader(0, 0), resetOp(opStore8, -8, 1, 0)), []byte{})
	f.Add(join(resetHeader(0, 1), resetOp(opStore2, rt.NullGuard-1, 1, 0)), []byte{})
	f.Add(join(resetHeader(1, 0), resetOp(opStore8, rt.MemSize-7, 1, 0)), []byte{})
	// 2-, 4- and 8-byte stores straddling a page boundary: inside the data
	// segment, at its end, in the input, on the stack.
	f.Add(join(resetHeader(2000, 100),
		resetOp(opStore2, rt.GlobalBase+page-1, 0x1111, 0),
		resetOp(opStore4, rt.GlobalBase+2*page-3, 0x22222222, 0),
		resetOp(opStore8, rt.GlobalBase+3*page-5, 0x3333333333333333, 0),
		resetOp(opStore8, rt.GlobalBase+5*2000-4, -1, 0),
		resetOp(opStore8, rt.InputBase+page-1, -1, 0),
		resetOp(opStore4, rt.StackTop-page-2, -1, 0)), bytes.Repeat([]byte{9}, 5000))
	// memset and memcpy across several pages, empty and negative lengths.
	f.Add(join(resetHeader(3000, 3000),
		resetOp(opMemset, rt.GlobalBase+100, 0xaa, 5*page/3),
		resetOp(opMemcpy, rt.InputBase-100, rt.GlobalBase, 4*page/3),
		resetOp(opMemcpy, rt.GlobalBase+7, rt.InputBase, 3*page/3),
		resetOp(opMemset, rt.MemSize, 1, 0),
		resetOp(opMemset, rt.MemSize-10, 1, 4),
		resetOp(opMemcpy, rt.GlobalBase, rt.GlobalBase+1, 0x7fff),
		resetOp(opMemset, rt.GlobalBase, 1, -1)), []byte("abcdefgh"))
	// Probe bumps: in the data segment, in the null guard, at both edges.
	f.Add(join(resetHeader(10, 20),
		resetOp(opProbe, rt.GlobalBase+5, 0, 0), resetOp(opProbe, rt.GlobalBase+5, 0, 0),
		resetOp(opProbe, 1, 0, 0), resetOp(opProbe, rt.MemSize-1, 0, 0),
		resetOp(opProbe, rt.MemSize, 0, 0), resetOp(opProbe, 0, 0, 0), resetOp(opProbe, -5, 0, 0)), []byte{})
	// A trap mid-execution, a step-limit abort, and frames on the stack.
	f.Add(join(resetHeader(100, 50),
		resetOp(opStore8, rt.GlobalBase+8, 1, 0), resetOp(opTrap, 0, 0, 0),
		resetOp(opStore8, rt.GlobalBase+16, 2, 0)), []byte("x"))
	f.Add(join(resetHeader(100, 50),
		resetOp(opCall, 0, 77, 40), resetOp(opCall, 0, 78, 600), resetOp(opStore1|inMem, 123456789, 1, 0),
		resetOp(opSpin, 0, 0, 0)), []byte("x"))

	f.Fuzz(func(t *testing.T, prog, input []byte) {
		if len(input) > rt.InputMax {
			input = input[:rt.InputMax]
		}
		exe1, exe2 := resetImages(prog)
		check := func(what string, m *Machine, want func([]byte, int64) error) {
			t.Helper()
			if d := memDiff(m.Env, want); d != "" {
				t.Fatalf("%s: %s", what, d)
			}
		}

		m := newLimited(exe1)
		first := runResult(m, input)
		m.Reset()
		fresh := newLimited(exe1)
		check("New", fresh, pristine(exe1))
		check("after Reset", m, pristine(exe1))
		if again, want := runResult(m, input), runResult(fresh, input); again != first || want != first {
			t.Fatalf("exe1: first run %+v, run after reset %+v, fresh machine %+v", first, again, want)
		}
		check("after a second run", m, fresh.Env.ReadMem)

		m.Rebind(exe2)
		fresh = newLimited(exe2)
		check("New of the second image", fresh, pristine(exe2))
		check("after Rebind", m, pristine(exe2))
		if got, want := runResult(m, input), runResult(fresh, input); got != want {
			t.Fatalf("exe2: rebound machine %+v, fresh machine %+v", got, want)
		}
		check("after a run on the second image", m, fresh.Env.ReadMem)

		m.Rebind(exe1)
		check("after Rebind back", m, pristine(exe1))
		if back := runResult(m, input); back != first {
			t.Fatalf("exe1 after rebinding back: %+v, first %+v", back, first)
		}
	})
}
