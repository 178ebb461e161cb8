package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/mir"
	"odin/internal/obj"
	"odin/internal/rt"
)

// The reset contract, checked on generated images: after Reset a machine's
// memory equals a fresh New(exe)'s byte for byte, after Rebind(exe2) it
// equals New(exe2)'s, and every execution's (ret, out, cycles, err) is what
// a fresh machine gives. The generator is a byte code, one resetOp per
// 19 bytes, lowered straight to mir so that it can write where compiled IR
// never would.

const (
	ropStore1 = iota
	ropStore2
	ropStore4
	ropStore8
	ropMemset // memset(a, b, n)
	ropMemcpy // memcpy(a, b, n)
	ropProbe  // counter bump at a
	ropCall   // n nested calls, each with a one-page frame it stores b into
	ropTrap
	ropSpin // jump to self: ends in the step limit
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
// that 15 bits reach past 160 KiB. With relink set in data2, the second
// image is an incremental relink of the first instead: the second size is
// ignored.
func resetHeader(data1, data2 uint16) []byte {
	return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16(nil, data1), data2)
}

const relink = 0x8000

// resetImages decodes prog into two images of one program, each linked from
// three objects: main holds fuzz_target, which runs the ops, lib holds the
// deep function, and data the data segment. The second image runs the ops
// in reverse order, over data bytes of its own: a full link with a data
// segment of its own length, or, with relink set, an incremental relink of
// the first image in which main and the data changed, so that it shares
// lib's code and its fuzz_target is as long as the first's.
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
		case ropStore1, ropStore2, ropStore4, ropStore8:
			size := int64(1) << k
			ops = append(ops, []mir.Inst{movi(mir.R6, a), movi(mir.R7, b),
				{Op: mir.Store, Rs1: mir.R6, Rs2: mir.R7, Size: size}})
		case ropMemset:
			ops = append(ops, []mir.Inst{movi(mir.R0, a), movi(mir.R1, b), movi(mir.R2, n*3),
				{Op: mir.Call, Sym: "memset"}})
		case ropMemcpy:
			ops = append(ops, []mir.Inst{movi(mir.R0, a), movi(mir.R1, b), movi(mir.R2, n*3),
				{Op: mir.Call, Sym: "memcpy"}})
		case ropProbe:
			ops = append(ops, []mir.Inst{{Op: mir.Probe, ProbeAddr: a}})
		case ropCall:
			ops = append(ops, []mir.Inst{movi(mir.R0, n), movi(mir.R1, b), {Op: mir.Call, Sym: "deep"}})
		case ropTrap:
			ops = append(ops, []mir.Inst{{Op: mir.Trap}})
		case ropSpin:
			ops = append(ops, nil) // the jump needs its own index: see below
		}
	}
	mainObj := func(ops [][]mir.Inst) *obj.Object {
		var code []mir.Inst
		for _, op := range ops {
			if op == nil {
				op = []mir.Inst{{Op: mir.Jmp, Target: len(code)}}
			}
			code = append(code, op...)
		}
		code = append(code, mir.Inst{Op: mir.MovImm, Rd: mir.R0, Imm: 7}, mir.Inst{Op: mir.Ret})
		return &obj.Object{Name: "main", Funcs: []obj.FuncSym{{Name: "fuzz_target", Linkage: mir.Global, Code: code}}}
	}
	lib := &obj.Object{Name: "lib", Funcs: []obj.FuncSym{{
		// deep(depth, v) stores v at the base of a one-page frame and across
		// the page boundary below it, then recurses depth times.
		Name: "deep", Linkage: mir.Global, Code: []mir.Inst{
			{Op: mir.Enter, Imm: rt.PageSize},
			{Op: mir.Store, Rs1: mir.SP, Rs2: mir.R1, Size: 8},
			{Op: mir.Store, Rs1: mir.SP, Imm: -4, Rs2: mir.R1, Size: 8},
			{Op: mir.JmpIf, Rs1: mir.R0, Target: 5},
			{Op: mir.Jmp, Target: 7},
			{Op: mir.ALUImm, ALUOp: ir.OpSub, Width: ir.I64, Rd: mir.R0, Rs1: mir.R0, Imm: 1},
			{Op: mir.Call, Sym: "deep"},
			{Op: mir.Leave, Imm: rt.PageSize},
			{Op: mir.Ret},
		}}}}
	dataObj := func(n int, salt byte) *obj.Object {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i)*7 + salt | 1 // never zero: a lost re-copy shows
		}
		return &obj.Object{Name: "data", Datas: []obj.DataSym{{Name: "seg", Size: int64(n), Init: data}}}
	}
	rev := make([][]mir.Inst, len(ops))
	for i, op := range ops {
		rev[len(ops)-1-i] = op
	}
	builtins := []string{"memcpy", "memset"}
	inc := link.NewIncremental()
	n1, n2 := 5*int(binary.LittleEndian.Uint16(hdr[:])), binary.LittleEndian.Uint16(hdr[2:])
	exe1, _, err := inc.Link([]*obj.Object{mainObj(ops), lib, dataObj(n1, 1)}, builtins)
	if err == nil && n2&relink != 0 {
		var incremental bool
		exe2, incremental, err = inc.Link([]*obj.Object{mainObj(rev), lib, dataObj(n1, 2)}, builtins)
		if err == nil && !incremental {
			err = fmt.Errorf("the relink took the full path")
		}
	} else if err == nil {
		exe2, err = link.Link([]*obj.Object{mainObj(rev), lib, dataObj(5*int(n2), 2)}, builtins)
	}
	if err != nil {
		panic(err)
	}
	return exe1, exe2
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
		resetOp(ropStore1, rt.NullGuard, 0x5a, 0),
		resetOp(ropStore8, rt.MemSize-8, -1, 0),
		resetOp(ropStore4, rt.StackTop-4, 0x01020304, 0),
		resetOp(ropStore8, 0x7ffffffffffffff9, 1, 0)), []byte("in"))
	f.Add(join(resetHeader(0, 0), resetOp(ropStore8, -8, 1, 0)), []byte{})
	f.Add(join(resetHeader(0, 1), resetOp(ropStore2, rt.NullGuard-1, 1, 0)), []byte{})
	f.Add(join(resetHeader(1, 0), resetOp(ropStore8, rt.MemSize-7, 1, 0)), []byte{})
	// 2-, 4- and 8-byte stores straddling a page boundary: inside the data
	// segment, at its end, in the input, on the stack.
	f.Add(join(resetHeader(2000, 100),
		resetOp(ropStore2, rt.GlobalBase+page-1, 0x1111, 0),
		resetOp(ropStore4, rt.GlobalBase+2*page-3, 0x22222222, 0),
		resetOp(ropStore8, rt.GlobalBase+3*page-5, 0x3333333333333333, 0),
		resetOp(ropStore8, rt.GlobalBase+5*2000-4, -1, 0),
		resetOp(ropStore8, rt.InputBase+page-1, -1, 0),
		resetOp(ropStore4, rt.StackTop-page-2, -1, 0)), bytes.Repeat([]byte{9}, 5000))
	// memset and memcpy across several pages, empty and negative lengths.
	f.Add(join(resetHeader(3000, 3000),
		resetOp(ropMemset, rt.GlobalBase+100, 0xaa, 5*page/3),
		resetOp(ropMemcpy, rt.InputBase-100, rt.GlobalBase, 4*page/3),
		resetOp(ropMemcpy, rt.GlobalBase+7, rt.InputBase, 3*page/3),
		resetOp(ropMemset, rt.MemSize, 1, 0),
		resetOp(ropMemset, rt.MemSize-10, 1, 4),
		resetOp(ropMemcpy, rt.GlobalBase, rt.GlobalBase+1, 0x7fff),
		resetOp(ropMemset, rt.GlobalBase, 1, -1)), []byte("abcdefgh"))
	// Probe bumps: in the data segment, in the null guard, at both edges.
	f.Add(join(resetHeader(10, 20),
		resetOp(ropProbe, rt.GlobalBase+5, 0, 0), resetOp(ropProbe, rt.GlobalBase+5, 0, 0),
		resetOp(ropProbe, 1, 0, 0), resetOp(ropProbe, rt.MemSize-1, 0, 0),
		resetOp(ropProbe, rt.MemSize, 0, 0), resetOp(ropProbe, 0, 0, 0), resetOp(ropProbe, -5, 0, 0)), []byte{})
	// A trap mid-execution, a step-limit abort, and frames on the stack.
	f.Add(join(resetHeader(100, 50),
		resetOp(ropStore8, rt.GlobalBase+8, 1, 0), resetOp(ropTrap, 0, 0, 0),
		resetOp(ropStore8, rt.GlobalBase+16, 2, 0)), []byte("x"))
	f.Add(join(resetHeader(100, 50),
		resetOp(ropCall, 0, 77, 40), resetOp(ropCall, 0, 78, 600), resetOp(ropStore1|inMem, 123456789, 1, 0),
		resetOp(ropSpin, 0, 0, 0)), []byte("x"))
	// Incremental relinks: the second fuzz_target is as long as the first
	// and shares deep with it, so only the code's identity tells a machine
	// that it must decode fuzz_target again. Each reversal changes what the
	// run leaves in memory, or where it traps.
	f.Add(join(resetHeader(30, relink),
		resetOp(ropStore8, rt.GlobalBase+8, 1, 0), resetOp(ropCall, 0, 5, 3),
		resetOp(ropStore8, rt.GlobalBase+8, 2, 0)), []byte("y"))
	f.Add(join(resetHeader(30, relink),
		resetOp(ropStore4, rt.GlobalBase+16, 3, 0), resetOp(ropTrap, 0, 0, 0),
		resetOp(ropMemset, rt.GlobalBase, 0x55, 40)), []byte{})

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
