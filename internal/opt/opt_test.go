package opt

import (
	"math/rand"
	"testing"

	"odin/internal/interp"
	"odin/internal/ir"
	"odin/internal/irtext"
)

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

// TestIsLowerRangeFold reproduces Figure 2: after optimization the function
// must contain a single basic block, one comparison, and no branches.
func TestIsLowerRangeFold(t *testing.T) {
	m := irtext.MustParse("m", isLowerSrc)
	Optimize(m, &Options{Level: 2})
	ir.MustVerify(m)
	f := m.LookupFunc("islower")
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks after opt = %d, want 1:\n%s", len(f.Blocks), ir.Print(m))
	}
	nCmp, nBr := 0, 0
	for _, in := range f.Blocks[0].Instrs {
		switch in.Op {
		case ir.OpICmp:
			nCmp++
			if in.Pred != ir.PredULT {
				t.Errorf("folded predicate = %s, want ult", in.Pred)
			}
		case ir.OpCondBr:
			nBr++
		}
	}
	if nCmp != 1 || nBr != 0 {
		t.Fatalf("cmps=%d branches=%d, want 1/0:\n%s", nCmp, nBr, ir.Print(m))
	}
	// Semantics preserved for all 256 inputs.
	checkIsLowerSemantics(t, m)
}

func checkIsLowerSemantics(t *testing.T, m *ir.Module) {
	t.Helper()
	ip, err := interp.New(m, newEnvForTest())
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 256; c++ {
		got, err := ip.Run("islower", ir.TruncToWidth(int64(c), ir.I8))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if c >= 'a' && c <= 'z' {
			want = 1
		}
		if got != want {
			t.Fatalf("islower(%d) = %d, want %d\n%s", c, got, want, ir.Print(m))
		}
	}
}

// TestRangeFoldBlockedBySideEffect checks the correctness mechanism Odin
// relies on: a probe call inserted in the middle block prevents the fold.
func TestRangeFoldBlockedBySideEffect(t *testing.T) {
	src := `
declare func @probe(%id: i64) -> void
func @islower(%chr: i8) -> i1 {
test_lb:
  %cmp1 = icmp sge i8 %chr, 97
  condbr %cmp1, test_ub, end
test_ub:
  call void @probe(i64 1)
  %cmp2 = icmp sle i8 %chr, 122
  br end
end:
  %r = phi i1 [0, test_lb], [%cmp2, test_ub]
  ret i1 %r
}
`
	m := irtext.MustParse("m", src)
	Optimize(m, &Options{Level: 2})
	ir.MustVerify(m)
	f := m.LookupFunc("islower")
	nCmp := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpICmp {
				nCmp++
			}
		}
	}
	if nCmp != 2 {
		t.Fatalf("probe did not block fold; cmps = %d, want 2:\n%s", nCmp, ir.Print(m))
	}
}

// TestFigure4 reproduces the paper's Figure 4: dead-argument elimination on
// foo plus the printf -> puts rewrite, with both dependencies reported.
func TestFigure4(t *testing.T) {
	src := `
const @str : [7 x i8] = bytes"\68\65\6c\6c\6f\0a\00"
declare func @printf(%fmt: ptr) -> i32
func @foo(%unused: i32) -> void internal noinline {
entry:
  %r = call i32 @printf(ptr @str)
  ret void
}
func @main() -> i32 {
entry:
  call void @foo(i32 1)
  ret i32 0
}
`
	m := irtext.MustParse("m", src)
	rep := &Report{}
	Optimize(m, &Options{Level: 2, Report: rep})
	ir.MustVerify(m)
	rep.Dedup()

	foo := m.LookupFunc("foo")
	if foo == nil {
		t.Fatalf("foo eliminated:\n%s", ir.Print(m))
	}
	if len(foo.Params) != 0 {
		t.Fatalf("dead arg not eliminated: %d params", len(foo.Params))
	}
	callFoo := m.LookupFunc("main").Blocks[0].Instrs[0]
	if callFoo.Op != ir.OpCall || callFoo.Callee != "foo" || len(callFoo.Operands) != 0 {
		t.Fatalf("caller not rewritten: %s", ir.FormatInstr(callFoo))
	}
	callPrintf := foo.Blocks[0].Instrs[0]
	if callPrintf.Callee != "puts" {
		t.Fatalf("printf not rewritten to puts: %s", ir.FormatInstr(callPrintf))
	}
	ng := callPrintf.Operands[0].(*ir.GlobalVar)
	if string(ng.Init) != "hello\x00" {
		t.Fatalf("puts string = %q, want hello", ng.Init)
	}
	// Dependencies must be reported for the partitioner.
	foundBond := false
	for _, bp := range rep.Bonds {
		if (bp[0] == "foo" && bp[1] == "main") || (bp[0] == "main" && bp[1] == "foo") {
			foundBond = true
		}
	}
	if !foundBond {
		t.Fatalf("missing foo/main bond: %v", rep.Bonds)
	}
	foundCopy := false
	for _, cu := range rep.CopyUses {
		if cu[0] == "str" && cu[1] == "foo" {
			foundCopy = true
		}
	}
	if !foundCopy {
		t.Fatalf("missing str copy-use: %v", rep.CopyUses)
	}
	// Output semantics preserved.
	ip, err := interp.New(m, newEnvForTest())
	if err != nil {
		t.Fatal(err)
	}
	env := ip.Env
	if _, err := ip.Run("main"); err != nil {
		t.Fatal(err)
	}
	if env.Out.String() != "hello\n" {
		t.Fatalf("output = %q, want hello\\n", env.Out.String())
	}
}

// TestPrintfFoldNeedsDefinition: with only a declaration of the string, the
// rewrite must not fire (the missed-optimization effect from §2.3).
func TestPrintfFoldNeedsDefinition(t *testing.T) {
	src := `
declare const @str : [7 x i8]
declare func @printf(%fmt: ptr) -> i32
func @show() -> void {
entry:
  %r = call i32 @printf(ptr @str)
  ret void
}
`
	m := irtext.MustParse("m", src)
	Optimize(m, &Options{Level: 2})
	ir.MustVerify(m)
	call := m.LookupFunc("show").Blocks[0].Instrs[0]
	if call.Callee != "printf" {
		t.Fatalf("fold fired without definition: %s", ir.FormatInstr(call))
	}
}

// TestDAENeedsInternalLinkage: exported functions keep their parameters.
func TestDAENeedsInternalLinkage(t *testing.T) {
	src := `
func @foo(%unused: i32) -> i32 {
entry:
  ret i32 7
}
func @main() -> i32 {
entry:
  %r = call i32 @foo(i32 1)
  ret i32 %r
}
`
	m := irtext.MustParse("m", src)
	Optimize(m, &Options{Level: 2, MaxInlineInstrs: 1})
	ir.MustVerify(m)
	if f := m.LookupFunc("foo"); f != nil && len(f.Params) != 1 {
		t.Fatalf("DAE fired on external function")
	}
}

func TestInlineSmallFunction(t *testing.T) {
	src := `
func @add3(%x: i64) -> i64 internal {
entry:
  %r = add i64 %x, 3
  ret i64 %r
}
func @main() -> i64 {
entry:
  %a = call i64 @add3(i64 4)
  %b = call i64 @add3(i64 %a)
  ret i64 %b
}
`
	m := irtext.MustParse("m", src)
	rep := &Report{}
	Optimize(m, &Options{Level: 2, Report: rep})
	ir.MustVerify(m)
	main := m.LookupFunc("main")
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				t.Fatalf("call survived inlining: %s", ir.FormatInstr(in))
			}
		}
	}
	// Whole thing should constant-fold to ret 10.
	term := main.Blocks[0].Instrs[len(main.Blocks[0].Instrs)-1]
	if term.Op != ir.OpRet || !ir.IsConstEq(term.Operands[0], 10) {
		t.Fatalf("did not fold to ret 10:\n%s", ir.Print(m))
	}
	// add3 is internal and now unreferenced: global DCE removes it.
	if m.LookupFunc("add3") != nil {
		t.Fatalf("dead internal function survived:\n%s", ir.Print(m))
	}
	rep.Dedup()
	found := false
	for _, bp := range rep.Bonds {
		if bp[0] == "add3" && bp[1] == "main" {
			found = true
		}
	}
	if !found {
		t.Fatalf("inline bond not reported: %v", rep.Bonds)
	}
}

func TestInlineRespectNoInline(t *testing.T) {
	src := `
func @f(%x: i64) -> i64 internal noinline {
entry:
  %r = add i64 %x, 3
  ret i64 %r
}
func @main() -> i64 {
entry:
  %a = call i64 @f(i64 4)
  ret i64 %a
}
`
	m := irtext.MustParse("m", src)
	Optimize(m, &Options{Level: 2})
	ir.MustVerify(m)
	if m.LookupFunc("f") == nil {
		t.Fatal("noinline function removed")
	}
	hasCall := false
	for _, in := range m.LookupFunc("main").Blocks[0].Instrs {
		if in.Op == ir.OpCall {
			hasCall = true
		}
	}
	if !hasCall {
		t.Fatal("noinline function was inlined")
	}
}

func TestInlineMultiReturn(t *testing.T) {
	src := `
func @pick(%x: i64) -> i64 internal {
entry:
  %c = icmp sgt i64 %x, 10
  condbr %c, big, small
big:
  ret i64 100
small:
  %d = add i64 %x, 1
  ret i64 %d
}
func @main(%v: i64) -> i64 {
entry:
  %a = call i64 @pick(i64 %v)
  %b = add i64 %a, 1000
  ret i64 %b
}
`
	m := irtext.MustParse("m", src)
	mOrig, _ := ir.CloneModule(m)
	Optimize(m, &Options{Level: 2})
	ir.MustVerify(m)
	// Differential check against unoptimized interpretation.
	for _, v := range []int64{0, 5, 10, 11, 50, -3} {
		ipO, err := interp.New(m, newEnvForTest())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ipO.Run("main", v)
		if err != nil {
			t.Fatal(err)
		}
		ipR, err := interp.New(mOrig, newEnvForTest())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ipR.Run("main", v)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("main(%d) = %d, want %d\n%s", v, got, want, ir.Print(m))
		}
	}
}

func TestConstGlobalLoadFold(t *testing.T) {
	src := `
const @tab : [4 x i8] = bytes"\0a\14\1e\28"
func @get() -> i64 {
entry:
  %p = gep @tab, 2, scale 1
  %v = load i8, %p
  %r = zext i8 %v to i64
  ret i64 %r
}
`
	m := irtext.MustParse("m", src)
	rep := &Report{}
	Optimize(m, &Options{Level: 2, Report: rep})
	ir.MustVerify(m)
	term := m.LookupFunc("get").Blocks[0].Instrs[len(m.LookupFunc("get").Blocks[0].Instrs)-1]
	if term.Op != ir.OpRet || !ir.IsConstEq(term.Operands[0], 30) {
		t.Fatalf("load not folded to 30:\n%s", ir.Print(m))
	}
	rep.Dedup()
	if len(rep.CopyUses) == 0 || rep.CopyUses[0][0] != "tab" {
		t.Fatalf("copy-use not reported: %v", rep.CopyUses)
	}
}

func TestStrengthReduction(t *testing.T) {
	src := `
func @f(%x: i64) -> i64 {
entry:
  %a = mul i64 %x, 8
  %b = udiv i64 %a, 4
  %c = urem i64 %b, 16
  ret i64 %c
}
`
	m := irtext.MustParse("m", src)
	Optimize(m, &Options{Level: 1})
	ir.MustVerify(m)
	ops := map[ir.Op]int{}
	for _, in := range m.LookupFunc("f").Blocks[0].Instrs {
		ops[in.Op]++
	}
	if ops[ir.OpMul] != 0 || ops[ir.OpUDiv] != 0 || ops[ir.OpURem] != 0 {
		t.Fatalf("strength reduction incomplete: %v\n%s", ops, ir.Print(m))
	}
	if ops[ir.OpShl] != 1 || ops[ir.OpLShr] != 1 || ops[ir.OpAnd] != 1 {
		t.Fatalf("expected shl/lshr/and: %v", ops)
	}
}

func TestCmpAddFoldDistortsOperands(t *testing.T) {
	// §2.2: icmp eq (add x, -97), 25 -> icmp eq x, 122. The CmpLog story.
	src := `
func @f(%x: i8) -> i1 {
entry:
  %off = add i8 %x, -97
  %r = icmp eq i8 %off, 25
  ret i1 %r
}
`
	m := irtext.MustParse("m", src)
	Optimize(m, &Options{Level: 1})
	ir.MustVerify(m)
	f := m.LookupFunc("f")
	var cmp *ir.Instr
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == ir.OpICmp {
			cmp = in
		}
	}
	if cmp == nil {
		t.Fatalf("no cmp:\n%s", ir.Print(m))
	}
	if _, isParam := cmp.Operands[0].(*ir.Param); !isParam || !ir.IsConstEq(cmp.Operands[1], 122) {
		t.Fatalf("cmp not folded onto param: %s", ir.FormatInstr(cmp))
	}
}

func TestSimplifyCFGMergesChains(t *testing.T) {
	src := `
func @f(%x: i64) -> i64 {
a:
  %v = add i64 %x, 1
  br b
b:
  %w = add i64 %v, 2
  br c
c:
  ret i64 %w
}
`
	m := irtext.MustParse("m", src)
	Optimize(m, &Options{Level: 1})
	ir.MustVerify(m)
	if n := len(m.LookupFunc("f").Blocks); n != 1 {
		t.Fatalf("blocks = %d, want 1:\n%s", n, ir.Print(m))
	}
}

func TestConstPropResolvesBranches(t *testing.T) {
	src := `
declare func @print_i64(%v: i64) -> void
func @f() -> i64 {
entry:
  %c = icmp sgt i64 5, 3
  condbr %c, yes, no
yes:
  ret i64 1
no:
  call void @print_i64(i64 999)
  ret i64 0
}
`
	m := irtext.MustParse("m", src)
	Optimize(m, &Options{Level: 1})
	ir.MustVerify(m)
	f := m.LookupFunc("f")
	if len(f.Blocks) != 1 {
		t.Fatalf("dead branch survived:\n%s", ir.Print(m))
	}
	term := f.Blocks[0].Term()
	if term.Op != ir.OpRet || !ir.IsConstEq(term.Operands[0], 1) {
		t.Fatalf("wrong fold:\n%s", ir.Print(m))
	}
}

func TestGlobalDCEKeepsAliasTargets(t *testing.T) {
	src := `
func @hidden() -> i64 internal {
entry:
  ret i64 1
}
alias @visible = @hidden
`
	m := irtext.MustParse("m", src)
	Optimize(m, &Options{Level: 2})
	ir.MustVerify(m)
	if m.LookupFunc("hidden") == nil {
		t.Fatal("alias target removed by global DCE")
	}
}

func TestGlobalDCERemovesOrphans(t *testing.T) {
	m := irtext.MustParse("m", `
func @orphan() -> i64 internal noinline {
entry:
  ret i64 1
}
func @main() -> i64 {
entry:
  ret i64 0
}
`)
	Optimize(m, &Options{Level: 2})
	if m.LookupFunc("orphan") != nil {
		t.Fatal("global DCE kept orphan")
	}
}

// TestDifferentialRandomPrograms: optimized programs behave identically to
// their unoptimized originals on random inputs.
func TestDifferentialRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomProgram(rng)
		ir.MustVerify(m)
		orig, _ := ir.CloneModule(m)
		Optimize(m, &Options{Level: 2})
		if err := ir.Verify(m); err != nil {
			t.Fatalf("seed %d: optimized module invalid: %v\n%s", seed, err, ir.Print(m))
		}
		for trial := 0; trial < 10; trial++ {
			args := []int64{rng.Int63n(200) - 100, rng.Int63n(200) - 100}
			gotO, errO := runMain(t, m, args)
			gotR, errR := runMain(t, orig, args)
			if (errO == nil) != (errR == nil) {
				t.Fatalf("seed %d args %v: trap mismatch: opt=%v ref=%v\n--- opt ---\n%s--- ref ---\n%s",
					seed, args, errO, errR, ir.Print(m), ir.Print(orig))
			}
			if errO == nil && gotO != gotR {
				t.Fatalf("seed %d args %v: %d != %d\n--- opt ---\n%s--- ref ---\n%s",
					seed, args, gotO, gotR, ir.Print(m), ir.Print(orig))
			}
		}
	}
}

func runMain(t *testing.T, m *ir.Module, args []int64) (int64, error) {
	t.Helper()
	ip, err := interp.New(m, newEnvForTest())
	if err != nil {
		t.Fatal(err)
	}
	return ip.Run("main", args...)
}

// randomProgram generates a module with a helper (sometimes internal,
// sometimes with a dead parameter) and a main that exercises branches,
// arithmetic, and calls.
func randomProgram(rng *rand.Rand) *ir.Module {
	m := ir.NewModule("rand")
	link := ir.External
	if rng.Intn(2) == 0 {
		link = ir.Internal
	}
	h := ir.NewFunc(m, "helper", &ir.FuncType{Params: []ir.Type{ir.I64, ir.I64}, Ret: ir.I64}, []string{"a", "b"})
	h.Linkage = link
	hb := h.AddBlock("entry")
	b := ir.NewBuilder()
	b.SetBlock(hb)
	var hv ir.Value = h.Params[0]
	if rng.Intn(3) > 0 {
		hv = b.Add(hv, h.Params[1]) // uses b
	} // else b is a dead param
	for i := 0; i < rng.Intn(5); i++ {
		ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpXor, ir.OpAnd, ir.OpOr}
		hv = b.Bin(ops[rng.Intn(len(ops))], hv, ir.Const(ir.I64, rng.Int63n(64)+1))
	}
	b.Ret(hv)

	main := ir.NewFunc(m, "main", &ir.FuncType{Params: []ir.Type{ir.I64, ir.I64}, Ret: ir.I64}, []string{"x", "y"})
	entry := main.AddBlock("entry")
	thenB := main.AddBlock("then")
	elseB := main.AddBlock("else")
	exit := main.AddBlock("exit")
	b.SetBlock(entry)
	cmp := b.ICmp(ir.Pred(rng.Intn(10)), main.Params[0], ir.Const(ir.I64, rng.Int63n(40)-20))
	b.CondBr(cmp, thenB, elseB)
	b.SetBlock(thenB)
	tv := b.Call(ir.I64, "helper", main.Params[0], main.Params[1])
	b.Br(exit)
	b.SetBlock(elseB)
	ev := b.Mul(main.Params[1], ir.Const(ir.I64, 4))
	b.Br(exit)
	b.SetBlock(exit)
	phi := b.Phi(ir.I64, []ir.Value{tv, ev}, []*ir.Block{thenB, elseB})
	res := b.Add(phi, ir.Const(ir.I64, rng.Int63n(10)))
	b.Ret(res)
	return m
}
