package codegen

import (
	"math/rand"
	"testing"

	"odin/internal/interp"
	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/obj"
	"odin/internal/opt"
	"odin/internal/rt"
	"odin/internal/vm"
)

func buildExe(t *testing.T, m *ir.Module) *link.Executable {
	t.Helper()
	o, err := CompileModule(m)
	if err != nil {
		t.Fatal(err)
	}
	var builtins []string
	for n := range rt.StdlibSigs {
		builtins = append(builtins, n)
	}
	exe, err := link.Link([]*obj.Object{o}, builtins)
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// randomProgram builds a loop whose body is a long straight-line chain with
// heavy value reuse, carried around the back edge by two phis and sometimes
// broken by a call: main(x, y) runs x&7 iterations starting from acc = y.
func randomProgram(rng *rand.Rand) *ir.Module {
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpXor, ir.OpAnd, ir.OpOr}
	m := ir.NewModule("rc")
	h := ir.NewFunc(m, "helper", &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.I64}, []string{"v"})
	h.Linkage = ir.Internal
	h.NoInline = true
	bld := ir.NewBuilder()
	bld.SetBlock(h.AddBlock("entry"))
	var hv ir.Value = h.Params[0]
	for i := 0; i < rng.Intn(8)+2; i++ {
		hv = bld.Bin(ops[rng.Intn(len(ops))], hv, ir.Const(ir.I64, rng.Int63n(50)+1))
	}
	bld.Ret(hv)

	f := ir.NewFunc(m, "main", &ir.FuncType{Params: []ir.Type{ir.I64, ir.I64}, Ret: ir.I64}, []string{"x", "y"})
	entry := f.AddBlock("entry")
	head := f.AddBlock("head")
	body := f.AddBlock("body")
	exit := f.AddBlock("exit")
	bld.SetBlock(entry)
	n := bld.And(f.Params[0], ir.Const(ir.I64, 7))
	bld.Br(head)
	bld.SetBlock(head)
	iPhi := bld.Phi(ir.I64, []ir.Value{ir.Const(ir.I64, 0), nil}, []*ir.Block{entry, nil})
	accPhi := bld.Phi(ir.I64, []ir.Value{f.Params[1], nil}, []*ir.Block{entry, nil})
	cond := bld.ICmp(ir.PredSLT, iPhi, n)
	bld.CondBr(cond, body, exit)
	bld.SetBlock(body)
	var acc ir.Value = accPhi
	vals := []ir.Value{accPhi, iPhi, f.Params[0], f.Params[1]}
	for k := 0; k < rng.Intn(14)+4; k++ {
		a := vals[rng.Intn(len(vals))]
		b := vals[rng.Intn(len(vals))]
		acc = bld.Bin(ops[rng.Intn(len(ops))], a, b)
		vals = append(vals, acc)
	}
	if rng.Intn(2) == 0 {
		acc = bld.Call(ir.I64, "helper", acc)
		acc = bld.Add(acc, vals[rng.Intn(len(vals))])
	}
	i2 := bld.Add(iPhi, ir.Const(ir.I64, 1))
	bld.Br(head)
	iPhi.Operands[1] = i2
	iPhi.Incoming[1] = body
	accPhi.Operands[1] = acc
	accPhi.Incoming[1] = body
	bld.SetBlock(exit)
	bld.Ret(accPhi)
	return m
}

// FuzzCodegenDifferential: a generated loop/phi/call program, optimized at
// -O0 and at -O2, returns on the vm what the interpreter returns for the
// same module.
func FuzzCodegenDifferential(f *testing.F) {
	for seed := int64(0); seed < 25; seed++ {
		f.Add(seed, seed*13-100, 97-seed*7)
	}
	f.Fuzz(func(t *testing.T, seed, x, y int64) {
		m := randomProgram(rand.New(rand.NewSource(seed)))
		ir.MustVerify(m)
		for _, level := range []int{0, 2} {
			mc, _ := ir.CloneModule(m)
			opt.Optimize(mc, &opt.Options{Level: level})
			got, errVM := vm.New(buildExe(t, mc)).Run("main", x, y)
			ip, err := interp.New(mc, rt.NewEnv())
			if err != nil {
				t.Fatal(err)
			}
			want, errIP := ip.Run("main", x, y)
			if (errVM == nil) != (errIP == nil) || got != want {
				t.Fatalf("seed %d -O%d main(%d,%d): vm=%d/%v interp=%d/%v",
					seed, level, x, y, got, errVM, want, errIP)
			}
		}
	})
}
