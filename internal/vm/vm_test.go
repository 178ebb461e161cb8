package vm

import (
	"math/rand"
	"strings"
	"testing"

	"odin/internal/interp"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/link"
	"odin/internal/mir"
	"odin/internal/progen"
	"odin/internal/rt"
	"odin/internal/toolchain"
)

func compile(t *testing.T, m *ir.Module, level int) *link.Executable {
	t.Helper()
	exe, _, err := toolchain.BuildPreserving(m, level)
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// runBoth executes fn on both engines and checks results agree; returns the
// VM result.
func runBoth(t *testing.T, m *ir.Module, level int, fn string, args ...int64) int64 {
	t.Helper()
	exe := compile(t, m, level)
	mach := New(exe)
	got, errV := mach.Run(fn, args...)

	ip, err := interp.New(m, newEnv())
	if err != nil {
		t.Fatal(err)
	}
	want, errI := ip.Run(fn, args...)
	if (errV == nil) != (errI == nil) {
		t.Fatalf("%s(%v) level %d: trap mismatch vm=%v interp=%v", fn, args, level, errV, errI)
	}
	if errV != nil {
		return 0
	}
	if got != want {
		t.Fatalf("%s(%v) level %d: vm=%d interp=%d", fn, args, level, got, want)
	}
	if vmOut, ipOut := mach.Env.Out.String(), ip.Env.Out.String(); vmOut != ipOut {
		t.Fatalf("%s(%v) level %d: output vm=%q interp=%q", fn, args, level, vmOut, ipOut)
	}
	return got
}

const isLowerSrc = `
func @islower(%chr: i8) -> i1 {
test_lb:
  %cmp1 = icmp sge i8 %chr, 97
  condbr %cmp1, test_ub, end
test_ub:
  %cmp2 = icmp sle i8 %chr, 122
  br end
end:
  %r = phi i1 [0, test_lb], [%cmp2, test_ub]
  ret i1 %r
}
`

func TestVMIsLowerAllLevels(t *testing.T) {
	for _, level := range []int{0, 1, 2} {
		m := irtext.MustParse("m", isLowerSrc)
		for c := 0; c < 256; c += 7 {
			got := runBoth(t, m, level, "islower", ir.TruncToWidth(int64(c), ir.I8))
			want := int64(0)
			if c >= 'a' && c <= 'z' {
				want = 1
			}
			if got != want {
				t.Fatalf("level %d: islower(%d) = %d, want %d", level, c, got, want)
			}
		}
	}
}

func TestVMLoopAndMemory(t *testing.T) {
	src := `
global @hist : [8 x i64] = zero
func @main(%n: i64) -> i64 {
entry:
  br head
head:
  %i = phi i64 [0, entry], [%i2, body]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %bucket = and i64 %i, 7
  %p = gep @hist, %bucket, scale 8
  %old = load i64, %p
  %new = add i64 %old, 1
  store i64 %new, %p
  %i2 = add i64 %i, 1
  br head
exit:
  %p0 = gep @hist, 3, scale 8
  %v = load i64, %p0
  ret i64 %v
}
`
	for _, level := range []int{0, 2} {
		m := irtext.MustParse("m", src)
		got := runBoth(t, m, level, "main", 20)
		if got != 3 { // i = 3, 11, 19
			t.Fatalf("level %d: got %d, want 3", level, got)
		}
	}
}

func TestVMCallsAndBuiltins(t *testing.T) {
	src := `
const @msg : [4 x i8] = bytes"\68\69\0a\00"
declare func @printf(%fmt: ptr) -> i32
declare func @print_i64(%v: i64) -> void
func @double(%x: i64) -> i64 internal noinline {
entry:
  %r = mul i64 %x, 2
  ret i64 %r
}
func @main(%x: i64) -> i64 {
entry:
  %a = call i64 @double(i64 %x)
  %b = call i64 @double(i64 %a)
  call void @print_i64(i64 %b)
  %n = call i32 @printf(ptr @msg)
  %n64 = sext i32 %n to i64
  %r = add i64 %b, %n64
  ret i64 %r
}
`
	for _, level := range []int{0, 1, 2} {
		m := irtext.MustParse("m", src)
		got := runBoth(t, m, level, "main", 5)
		if got != 23 { // 20 + len("hi\n")
			t.Fatalf("level %d: got %d, want 23", level, got)
		}
	}
}

func TestVMAlloca(t *testing.T) {
	src := `
func @main() -> i64 {
entry:
  %buf = alloca i64, 4
  %p1 = gep %buf, 1, scale 8
  %p3 = gep %buf, 3, scale 8
  store i64 10, %buf
  store i64 20, %p1
  store i64 30, %p3
  %a = load i64, %buf
  %b = load i64, %p1
  %c = load i64, %p3
  %s1 = add i64 %a, %b
  %s2 = add i64 %s1, %c
  ret i64 %s2
}
`
	for _, level := range []int{0, 2} {
		m := irtext.MustParse("m", src)
		if got := runBoth(t, m, level, "main"); got != 60 {
			t.Fatalf("level %d: got %d, want 60", level, got)
		}
	}
}

func TestVMSwitch(t *testing.T) {
	src := `
func @classify(%x: i64) -> i64 {
entry:
  switch i64 %x [1: one, 2: two, 9: nine] default other
one:
  ret i64 100
two:
  ret i64 200
nine:
  ret i64 900
other:
  ret i64 -1
}
`
	for _, level := range []int{0, 2} {
		m := irtext.MustParse("m", src)
		for in, want := range map[int64]int64{1: 100, 2: 200, 9: 900, 4: -1} {
			if got := runBoth(t, m, level, "classify", in); got != want {
				t.Fatalf("level %d: classify(%d)=%d want %d", level, in, got, want)
			}
		}
	}
}

func TestVMSelect(t *testing.T) {
	src := `
func @pick(%c: i64, %a: i64, %b: i64) -> i64 {
entry:
  %cond = icmp ne i64 %c, 0
  %r = select i64 %cond, %a, %b
  ret i64 %r
}
`
	m := irtext.MustParse("m", src)
	if got := runBoth(t, m, 0, "pick", 1, 7, 9); got != 7 {
		t.Fatalf("got %d want 7", got)
	}
	m2 := irtext.MustParse("m", src)
	if got := runBoth(t, m2, 0, "pick", 0, 7, 9); got != 9 {
		t.Fatalf("got %d want 9", got)
	}
}

func TestVMTraps(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"div", "func @f(%x: i64) -> i64 {\nentry:\n  %r = sdiv i64 10, %x\n  ret i64 %r\n}", "sdiv by zero"},
		{"unreachable", "func @f(%x: i64) -> i64 {\nentry:\n  unreachable\n}", "trap"},
		{"nullload", "func @f(%x: i64) -> i64 {\nentry:\n  %r = load i64, %x\n  ret i64 %r\n}", "out-of-bounds"},
	}
	for _, c := range cases {
		m := irtext.MustParse("m", c.src)
		exe := compile(t, m, 0)
		mach := New(exe)
		_, err := mach.Run("f", 0)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err=%v, want %q", c.name, err, c.want)
		}
	}
}

func TestVMAlias(t *testing.T) {
	src := `
func @real(%x: i64) -> i64 {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}
alias @aka = @real
func @main() -> i64 {
entry:
  %r = call i64 @aka(i64 41)
  ret i64 %r
}
`
	m := irtext.MustParse("m", src)
	if got := runBoth(t, m, 0, "main"); got != 42 {
		t.Fatalf("alias call: got %d, want 42", got)
	}
}

func TestVMCyclesPositiveAndOptimizationHelps(t *testing.T) {
	src := `
func @work(%n: i64) -> i64 {
entry:
  br head
head:
  %i = phi i64 [0, entry], [%i2, body]
  %acc = phi i64 [0, entry], [%acc2, body]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %t1 = mul i64 %i, 1
  %t2 = add i64 %t1, 0
  %t3 = xor i64 %t2, 0
  %acc2 = add i64 %acc, %t3
  %i2 = add i64 %i, 1
  br head
exit:
  ret i64 %acc
}
`
	m0 := irtext.MustParse("m", src)
	exe0 := compile(t, m0, 0)
	mach0 := New(exe0)
	r0, err := mach0.Run("work", 500)
	if err != nil {
		t.Fatal(err)
	}

	m2 := irtext.MustParse("m", src)
	exe2 := compile(t, m2, 2)
	mach2 := New(exe2)
	r2, err := mach2.Run("work", 500)
	if err != nil {
		t.Fatal(err)
	}
	if r0 != r2 {
		t.Fatalf("results differ: %d vs %d", r0, r2)
	}
	if mach2.Cycles >= mach0.Cycles {
		t.Fatalf("optimization did not reduce cycles: O0=%d O2=%d", mach0.Cycles, mach2.Cycles)
	}
	if mach0.Cycles <= 0 {
		t.Fatal("cycles not counted")
	}
}

func TestVMReset(t *testing.T) {
	src := `
global @state : i64 = zero
func @main() -> i64 {
entry:
  %v = load i64, @state
  %n = add i64 %v, 1
  store i64 %n, @state
  ret i64 %n
}
`
	m := irtext.MustParse("m", src)
	exe := compile(t, m, 0)
	mach := New(exe)
	if r, _ := mach.Run("main"); r != 1 {
		t.Fatalf("first run: %d", r)
	}
	if r, _ := mach.Run("main"); r != 2 {
		t.Fatalf("second run (no reset): %d", r)
	}
	mach.Reset()
	if r, _ := mach.Run("main"); r != 1 {
		t.Fatalf("after reset: %d", r)
	}
}

// TestVMDifferentialRandom cross-checks VM vs interpreter on random modules
// at all optimization levels.
func TestVMDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomModule(rng)
		ir.MustVerify(m)
		for _, level := range []int{0, 1, 2} {
			for trial := 0; trial < 5; trial++ {
				a := rng.Int63n(100) - 50
				b := rng.Int63n(100) - 50
				mc, _ := ir.CloneModule(m)
				runBoth(t, mc, level, "main", a, b)
			}
		}
	}
}

func randomModule(rng *rand.Rand) *ir.Module {
	m := ir.NewModule("rand")
	h := ir.NewFunc(m, "helper", &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.I64}, []string{"v"})
	if rng.Intn(2) == 0 {
		h.Linkage = ir.Internal
	}
	hb := h.AddBlock("entry")
	bld := ir.NewBuilder()
	bld.SetBlock(hb)
	var hv ir.Value = h.Params[0]
	for i := 0; i < rng.Intn(6)+1; i++ {
		ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpXor, ir.OpAnd, ir.OpOr, ir.OpShl}
		op := ops[rng.Intn(len(ops))]
		c := rng.Int63n(30) + 1
		if op == ir.OpShl {
			c = rng.Int63n(8)
		}
		hv = bld.Bin(op, hv, ir.Const(ir.I64, c))
	}
	bld.Ret(hv)

	f := ir.NewFunc(m, "main", &ir.FuncType{Params: []ir.Type{ir.I64, ir.I64}, Ret: ir.I64}, []string{"x", "y"})
	entry := f.AddBlock("entry")
	loopH := f.AddBlock("head")
	loopB := f.AddBlock("body")
	exit := f.AddBlock("exit")
	bld.SetBlock(entry)
	n := bld.And(f.Params[0], ir.Const(ir.I64, 15))
	bld.Br(loopH)
	bld.SetBlock(loopH)
	iPhi := bld.Phi(ir.I64, []ir.Value{ir.Const(ir.I64, 0), nil}, []*ir.Block{entry, loopB})
	accPhi := bld.Phi(ir.I64, []ir.Value{f.Params[1], nil}, []*ir.Block{entry, loopB})
	c := bld.ICmp(ir.PredSLT, iPhi, n)
	bld.CondBr(c, loopB, exit)
	bld.SetBlock(loopB)
	hres := bld.Call(ir.I64, "helper", accPhi)
	acc2 := bld.Add(hres, iPhi)
	i2 := bld.Add(iPhi, ir.Const(ir.I64, 1))
	iPhi.Operands[1] = i2
	accPhi.Operands[1] = acc2
	bld.Br(loopH)
	bld.SetBlock(exit)
	bld.Ret(accPhi)
	return m
}

func newEnv() *rt.Env { return rt.NewEnv() }

// TestVMTrapParityWithInterp: bug-triggering inputs must trap identically
// on both engines (crash reproduction fidelity).
func TestVMTrapParityWithInterp(t *testing.T) {
	m := progen.Demo().Generate()
	exe := compile(t, m, 2)
	inputs := [][]byte{
		{0x42, 0x42, 0x55, 0x47}, // the planted bug
		{0x42, 0x42, 0x55, 0x46}, // one byte off: no bug
		[]byte("harmless"),
	}
	for _, in := range inputs {
		mach := New(exe)
		_, _, _, errV := RunProgram(mach, in)
		_, _, errI := interp.RunProgram(m, in)
		if (errV == nil) != (errI == nil) {
			t.Fatalf("input %v: trap parity broken: vm=%v interp=%v", in, errV, errI)
		}
		if errV != nil && !strings.Contains(errV.Error(), "abort") {
			t.Fatalf("input %v: wrong trap: %v", in, errV)
		}
	}
}

// TestVMPCOutOfRange: running off a function's code, jumping outside it and
// calling an empty function trap "pc out of range" at no cycle and no step,
// also when the step limit would run out on that very instruction.
func TestVMPCOutOfRange(t *testing.T) {
	cases := []struct {
		name   string
		code   []mir.Inst
		limit  int64
		want   string
		cycles int64
		steps  int64
	}{
		{"fall off the end", []mir.Inst{{Op: mir.MovImm, Rd: mir.R0, Imm: 1}}, 0, "pc 1 out of range in f", 1, 1},
		{"jump past the end", []mir.Inst{{Op: mir.Nop}, {Op: mir.Jmp, Target: 5}}, 0, "pc 5 out of range in f", 3, 2},
		{"taken branch below 0", []mir.Inst{{Op: mir.MovImm, Rd: mir.R1, Imm: 1}, {Op: mir.JmpIf, Rs1: mir.R1, Target: -1}}, 0, "pc -1 out of range in f", 3, 2},
		{"branch not taken, then off the end", []mir.Inst{{Op: mir.JmpIf, Rs1: mir.R1, Target: 9}, {Op: mir.Jmp, Target: 2}}, 0, "pc 2 out of range in f", 3, 2},
		{"call an empty function", []mir.Inst{{Op: mir.Call, FuncIdx: 1}}, 0, "pc 0 out of range in g", 2, 1},
		{"step limit on the way out", []mir.Inst{{Op: mir.Nop}}, 1, "pc 1 out of range in f", 1, 1},
		{"step limit before", []mir.Inst{{Op: mir.Nop}, {Op: mir.Nop}}, 1, "step limit 1 exceeded", 2, 2},
	}
	for _, c := range cases {
		m := New(&link.Executable{
			Funcs:   []link.Func{{Name: "f", Code: c.code}, {Name: "g"}},
			FuncIdx: map[string]int{"f": 0},
		})
		m.Env.StepLimit = c.limit
		_, err := m.Run("f")
		if err == nil || err.Error() != "trap: "+c.want || m.Cycles != c.cycles || m.Env.Steps != c.steps {
			t.Errorf("%s: err %v, cycles %d, steps %d; want %q, %d, %d", c.name, err, m.Cycles, m.Env.Steps, c.want, c.cycles, c.steps)
		}
	}
}

// TestVMBuiltinSeesCounters: a builtin sees the cycles and steps of the run
// so far, its own call included, and an unregistered one traps after
// paying for the call instruction only.
func TestVMBuiltinSeesCounters(t *testing.T) {
	exe := &link.Executable{
		Funcs: []link.Func{{Name: "f", Code: []mir.Inst{
			{Op: mir.MovImm, Rd: mir.R0, Imm: 5},
			{Op: mir.Call, FuncIdx: -1},
			{Op: mir.Call, FuncIdx: -2},
			{Op: mir.Ret},
		}}},
		FuncIdx:  map[string]int{"f": 0},
		Builtins: []string{"hook", "missing"},
	}
	m := New(exe)
	var cycles, steps int64
	m.Env.Builtins["hook"] = func(e *rt.Env, args []int64) (int64, error) {
		cycles, steps = m.Cycles, e.Steps
		return args[0], nil
	}
	_, err := m.Run("f")
	if cycles != 11 || steps != 2 {
		t.Errorf("hook saw cycles %d, steps %d; want 11, 2", cycles, steps)
	}
	if err == nil || err.Error() != `trap: builtin "missing" not registered` || m.Cycles != 13 || m.Env.Steps != 3 {
		t.Errorf("err %v, cycles %d, steps %d; want the missing builtin's trap at 13, 3", err, m.Cycles, m.Env.Steps)
	}
}
