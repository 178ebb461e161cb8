package ir

import (
	"strings"
	"testing"
)

// buildIsLower constructs the unoptimized islower function from Figure 2 of
// the paper: two comparisons and a phi.
func buildIsLower(m *Module) *Func {
	f := NewFunc(m, "islower", &FuncType{Params: []Type{I8}, Ret: I1}, []string{"chr"})
	testLB := f.AddBlock("test_lb")
	testUB := f.AddBlock("test_ub")
	end := f.AddBlock("end")

	b := NewBuilder()
	b.SetBlock(testLB)
	cmp1 := b.ICmp(PredSGE, f.Params[0], Const(I8, 97))
	b.CondBr(cmp1, testUB, end)

	b.SetBlock(testUB)
	cmp2 := b.ICmp(PredSLE, f.Params[0], Const(I8, 122))
	b.Br(end)

	b.SetBlock(end)
	r := b.Phi(I1, []Value{False(), cmp2}, []*Block{testLB, testUB})
	b.Ret(r)
	return f
}

func TestBuildAndVerifyIsLower(t *testing.T) {
	m := NewModule("test")
	f := buildIsLower(m)
	if err := Verify(m); err != nil {
		t.Fatalf("verify failed: %v", err)
	}
	if got := len(f.Blocks); got != 3 {
		t.Fatalf("blocks = %d, want 3", got)
	}
	if f.NumInstrs() != 6 {
		t.Fatalf("instrs = %d, want 6", f.NumInstrs())
	}
}

func TestTypeProperties(t *testing.T) {
	cases := []struct {
		t    ScalarType
		size int64
		bits int
	}{
		{I1, 1, 1}, {I8, 1, 8}, {I16, 2, 16}, {I32, 4, 32}, {I64, 8, 64}, {Ptr, 8, 64},
	}
	for _, c := range cases {
		if c.t.Size() != c.size {
			t.Errorf("%s size = %d, want %d", c.t, c.t.Size(), c.size)
		}
		if c.t.Bits() != c.bits {
			t.Errorf("%s bits = %d, want %d", c.t, c.t.Bits(), c.bits)
		}
	}
	at := &ArrayType{Elem: I32, Len: 10}
	if at.Size() != 40 {
		t.Errorf("array size = %d, want 40", at.Size())
	}
	if at.String() != "[10 x i32]" {
		t.Errorf("array string = %q", at.String())
	}
	if !at.Equal(&ArrayType{Elem: I32, Len: 10}) {
		t.Error("equal arrays not Equal")
	}
	if at.Equal(&ArrayType{Elem: I64, Len: 10}) {
		t.Error("different arrays Equal")
	}
}

func TestTruncToWidth(t *testing.T) {
	cases := []struct {
		v    int64
		t    ScalarType
		want int64
	}{
		{255, I8, -1},
		{256, I8, 0},
		{127, I8, 127},
		{3, I1, 1},
		{65535, I16, -1},
		{1 << 32, I32, 0},
		{-1, I64, -1},
	}
	for _, c := range cases {
		if got := TruncToWidth(c.v, c.t); got != c.want {
			t.Errorf("TruncToWidth(%d, %s) = %d, want %d", c.v, c.t, got, c.want)
		}
	}
}

func TestPredEval(t *testing.T) {
	cases := []struct {
		p    Pred
		a, b int64
		t    ScalarType
		want bool
	}{
		{PredEQ, 5, 5, I64, true},
		{PredNE, 5, 5, I64, false},
		{PredSLT, -1, 0, I64, true},
		{PredULT, -1, 0, I64, false}, // -1 unsigned is max
		{PredSGE, 97, 97, I8, true},
		{PredULE, -1, -1, I8, true},
		{PredUGT, -1, 1, I8, true}, // 255 > 1 unsigned
	}
	for _, c := range cases {
		if got := EvalPred(c.p, c.a, c.b, c.t); got != c.want {
			t.Errorf("EvalPred(%s, %d, %d, %s) = %v, want %v", c.p, c.a, c.b, c.t, got, c.want)
		}
	}
}

func TestPredInvertSwap(t *testing.T) {
	all := []Pred{PredEQ, PredNE, PredSLT, PredSLE, PredSGT, PredSGE, PredULT, PredULE, PredUGT, PredUGE}
	for _, p := range all {
		if p.Invert().Invert() != p {
			t.Errorf("double invert of %s != itself", p)
		}
		if p.Swap().Swap() != p {
			t.Errorf("double swap of %s != itself", p)
		}
		// Semantic check on sample values.
		for _, pair := range [][2]int64{{1, 2}, {2, 1}, {3, 3}, {-5, 4}} {
			a, b := pair[0], pair[1]
			if EvalPred(p, a, b, I64) == EvalPred(p.Invert(), a, b, I64) {
				t.Errorf("%s and its inverse agree on (%d,%d)", p, a, b)
			}
			if EvalPred(p, a, b, I64) != EvalPred(p.Swap(), b, a, I64) {
				t.Errorf("%s swap disagrees on (%d,%d)", p, a, b)
			}
		}
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("bad")
	f := NewFunc(m, "f", &FuncType{Ret: I64}, nil)
	blk := f.AddBlock("entry")
	b := NewBuilder()
	b.SetBlock(blk)
	b.Add(Const(I64, 1), Const(I64, 2))
	if err := Verify(m); err == nil {
		t.Fatal("verify accepted block without terminator")
	}
}

func TestVerifyCatchesPhiMismatch(t *testing.T) {
	m := NewModule("bad")
	f := NewFunc(m, "f", &FuncType{Ret: I64}, nil)
	entry := f.AddBlock("entry")
	exit := f.AddBlock("exit")
	b := NewBuilder()
	b.SetBlock(entry)
	b.Br(exit)
	b.SetBlock(exit)
	// Phi claims an incoming edge from exit itself, which is not a pred.
	phi := b.Phi(I64, []Value{Const(I64, 1)}, []*Block{exit})
	b.Ret(phi)
	if err := Verify(m); err == nil {
		t.Fatal("verify accepted phi with non-predecessor incoming block")
	}
}

func TestVerifyCatchesBadCall(t *testing.T) {
	m := NewModule("bad")
	f := NewFunc(m, "f", &FuncType{Ret: I64}, nil)
	blk := f.AddBlock("entry")
	b := NewBuilder()
	b.SetBlock(blk)
	c := b.Call(I64, "missing")
	b.Ret(c)
	if err := Verify(m); err == nil {
		t.Fatal("verify accepted call to undefined symbol")
	}
}

func TestVerifyCatchesAliasToDecl(t *testing.T) {
	m := NewModule("bad")
	NewDecl(m, "ext", &FuncType{Ret: Void})
	m.AddAlias(&Alias{Name: "a", Target: "ext"})
	if err := Verify(m); err == nil {
		t.Fatal("verify accepted alias to declaration")
	}
}

func TestCloneModulePreservesStructure(t *testing.T) {
	m := NewModule("orig")
	g := m.AddGlobal(&GlobalVar{Name: "counter", Elem: I64, Init: make([]byte, 8)})
	f := buildIsLower(m)
	// Add a user of the global so remapping is exercised.
	user := NewFunc(m, "bump", &FuncType{Ret: I64}, nil)
	blk := user.AddBlock("entry")
	b := NewBuilder()
	b.SetBlock(blk)
	v := b.Load(I64, g)
	nv := b.Add(v, Const(I64, 1))
	b.Store(nv, g)
	c := b.Call(I1, "islower", Const(I8, 99))
	z := b.ZExt(c, I64)
	sum := b.Add(nv, z)
	b.Ret(sum)
	MustVerify(m)

	cl, vmap := CloneModule(m)
	MustVerify(cl)
	if Print(cl) != Print(m) {
		t.Fatalf("clone prints differently:\n--- orig ---\n%s\n--- clone ---\n%s", Print(m), Print(cl))
	}
	// Mutating the clone must not affect the original.
	cl.LookupFunc("bump").Blocks[0].Instrs[0].Name = "renamed"
	if strings.Contains(Print(m), "renamed") {
		t.Fatal("mutating clone affected original")
	}
	// The value map must translate original blocks to clone blocks.
	origEntry := f.Blocks[0]
	mapped := vmap.MapBlock(origEntry)
	if mapped == origEntry || mapped.Name != origEntry.Name {
		t.Fatal("value map did not translate block")
	}
	// Cloned global operands must point at the cloned global object.
	clBump := cl.LookupFunc("bump")
	ld := clBump.Blocks[0].Instrs[0]
	if gv, ok := ld.Operands[0].(*GlobalVar); !ok || gv != cl.LookupGlobal("counter") {
		t.Fatal("cloned load does not reference cloned global")
	}
}

func TestCloneFuncPhiRemap(t *testing.T) {
	m := NewModule("m")
	buildIsLower(m)
	cl, vmap := CloneModule(m)
	nf := cl.LookupFunc("islower")
	end := nf.Blocks[2]
	phi := end.Instrs[0]
	if phi.Op != OpPhi {
		t.Fatal("expected phi at clone end block")
	}
	for _, inc := range phi.Incoming {
		if inc.Parent != nf {
			t.Fatal("phi incoming block not remapped to clone")
		}
	}
	// cmp2 operand must be the cloned instruction, not the original.
	cmp2 := phi.Operands[1].(*Instr)
	if cmp2.Parent.Parent != nf {
		t.Fatal("phi operand not remapped to clone")
	}
	_ = vmap
}

func TestReferences(t *testing.T) {
	m := NewModule("m")
	g := m.AddGlobal(&GlobalVar{Name: "fmt", Elem: &ArrayType{Elem: I8, Len: 4}, Init: []byte("hi\n\x00"), Const: true})
	NewDecl(m, "printf", &FuncType{Params: []Type{Ptr}, Ret: I32})
	show := NewFunc(m, "show", &FuncType{Ret: Void}, nil)
	blk := show.AddBlock("entry")
	b := NewBuilder()
	b.SetBlock(blk)
	b.Call(I32, "printf", g)
	b.Ret(nil)
	MustVerify(m)

	refs := m.References("show")
	want := map[string]bool{"printf": true, "fmt": true}
	if len(refs) != 2 || !want[refs[0]] || !want[refs[1]] {
		t.Fatalf("References(show) = %v, want printf+fmt", refs)
	}
	if refs := m.References("fmt"); len(refs) != 0 {
		t.Fatalf("References(fmt) = %v, want empty", refs)
	}
}

func TestRemoveSymbol(t *testing.T) {
	m := NewModule("m")
	NewFunc(m, "f", &FuncType{Ret: Void}, nil)
	m.AddGlobal(&GlobalVar{Name: "g", Elem: I64, Init: make([]byte, 8)})
	m.RemoveSymbol("f")
	m.RemoveSymbol("g")
	m.RemoveSymbol("nonexistent")
	if len(m.Funcs) != 0 || len(m.Globals) != 0 {
		t.Fatal("remove did not delete symbols")
	}
	if m.Lookup("f") != nil {
		t.Fatal("symbol table stale after remove")
	}
}

func TestInsertBeforeAndRemoveAt(t *testing.T) {
	m := NewModule("m")
	f := NewFunc(m, "f", &FuncType{Ret: I64}, nil)
	blk := f.AddBlock("entry")
	b := NewBuilder()
	b.SetBlock(blk)
	v := b.Add(Const(I64, 1), Const(I64, 2))
	b.Ret(v)
	// Insert a mul before the ret.
	mul := &Instr{Op: OpMul, Typ: I64, Name: "m0", Operands: []Value{v, Const(I64, 3)}}
	blk.InsertBefore(1, mul)
	if blk.Instrs[1] != mul || len(blk.Instrs) != 3 {
		t.Fatal("InsertBefore misplaced instruction")
	}
	blk.RemoveAt(1)
	if len(blk.Instrs) != 2 || blk.Instrs[1].Op != OpRet {
		t.Fatal("RemoveAt broke block")
	}
}

func TestBuilderInsertBeforeMode(t *testing.T) {
	m := NewModule("m")
	f := NewFunc(m, "f", &FuncType{Ret: I64}, nil)
	blk := f.AddBlock("entry")
	b := NewBuilder()
	b.SetBlock(blk)
	b.Ret(Const(I64, 0))
	// Now insert two instructions before the ret, in order.
	b.SetInsertBefore(blk, 0)
	x := b.Add(Const(I64, 1), Const(I64, 2))
	b.Mul(x, Const(I64, 3))
	if blk.Instrs[0].Op != OpAdd || blk.Instrs[1].Op != OpMul || blk.Instrs[2].Op != OpRet {
		t.Fatalf("insert-before ordering wrong: %v %v %v", blk.Instrs[0].Op, blk.Instrs[1].Op, blk.Instrs[2].Op)
	}
}

func TestDuplicateSymbolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate symbol")
		}
	}()
	m := NewModule("m")
	NewFunc(m, "f", &FuncType{Ret: Void}, nil)
	NewFunc(m, "f", &FuncType{Ret: Void}, nil)
}

func TestAddBlockUniqueLabels(t *testing.T) {
	f := &Func{Name: "f", Sig: &FuncType{Ret: Void}}
	b1 := f.AddBlock("bb")
	b2 := f.AddBlock("bb")
	if b1.Name == b2.Name {
		t.Fatalf("duplicate labels: %q %q", b1.Name, b2.Name)
	}
}
