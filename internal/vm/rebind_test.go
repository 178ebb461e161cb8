package vm

import (
	"fmt"
	"testing"

	"odin/internal/codegen"
	"odin/internal/irtext"
	"odin/internal/link"
	"odin/internal/obj"
	"odin/internal/toolchain"
)

const rebindMain = `
declare func @step(%x: i64) -> i64
declare func @print_i64(%v: i64) -> void
func @main(%n: i64) -> i64 {
entry:
  br head
head:
  %i = phi i64 [0, entry], [%i2, body]
  %acc = phi i64 [1, entry], [%acc2, body]
  %c = icmp slt i64 %i, %n
  condbr %c, body, exit
body:
  %acc2 = call i64 @step(i64 %acc)
  %i2 = add i64 %i, 1
  br head
exit:
  call void @print_i64(i64 %acc)
  ret i64 %acc
}
`

// rebindLib is the object that changes between images: every version has
// the same code length, so only the code's identity tells them apart. A
// modulus of 0 traps.
func rebindLib(t *testing.T, mul, mod int) *obj.Object {
	t.Helper()
	return compileObj(t, "lib", fmt.Sprintf(`
func @step(%%x: i64) -> i64 {
entry:
  %%m = mul i64 %%x, %d
  %%r = urem i64 %%m, %d
  ret i64 %%r
}
`, mul, mod))
}

func compileObj(t *testing.T, name, src string) *obj.Object {
	t.Helper()
	o, err := codegen.CompileModule(irtext.MustParse(name, src))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRebindIncrementalRelinkEqualsFresh: a machine moved to an incremental
// relink in which one object changed keeps the decoded code of the
// functions the relink shares and must run exactly as a fresh machine on
// the new image, then on the old image again, then on a full link.
func TestRebindIncrementalRelinkEqualsFresh(t *testing.T) {
	mainObj := compileObj(t, "main", rebindMain)
	builtins := toolchain.StdBuiltins()
	inc := link.NewIncremental()
	a, _, err := inc.Link([]*obj.Object{mainObj, rebindLib(t, 3, 65521)}, builtins)
	if err != nil {
		t.Fatal(err)
	}
	libB := []*obj.Object{mainObj, rebindLib(t, 5, 0)}
	b, incremental, err := inc.Link(libB, builtins)
	if err != nil || !incremental {
		t.Fatalf("relink: incremental=%v err=%v", incremental, err)
	}
	full, err := link.Link(libB, builtins)
	if err != nil {
		t.Fatal(err)
	}
	main, _ := a.Lookup("main")
	if !sameCode(a.Funcs[main].Code, b.Funcs[main].Code) {
		t.Fatal("the relink does not share the unchanged object's code")
	}

	run := func(m *Machine, n int64) progResult {
		m.Reset()
		ret, err := m.Run("main", n)
		r := progResult{ret: ret, out: m.Env.Out.String(), cycles: m.Cycles}
		if err != nil {
			r.err = err.Error()
		}
		return r
	}
	m := New(a)
	for _, img := range []struct {
		name string
		exe  *link.Executable
	}{{"A", a}, {"incremental relink B", b}, {"A again", a}, {"full link of B", full}} {
		m.Rebind(img.exe)
		fresh := New(img.exe)
		for _, n := range []int64{0, 1, 7, 40} {
			if got, want := run(m, n), run(fresh, n); got != want {
				t.Fatalf("%s, main(%d): rebound machine %+v, fresh machine %+v", img.name, n, got, want)
			}
		}
	}
}
