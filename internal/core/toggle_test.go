package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"odin/internal/irtext"
	"odin/internal/rt"
	"odin/internal/vm"
)

// groupSrc bonds four noinline functions into ONE fragment with a COMDAT
// group (innate pairs cluster under every variant), so toggling a probe on
// one of them dirties a multi-function fragment. whelp is internal and
// reachable only through w1.
const groupSrc = `
func @w0(%x: i64) -> i64 noinline comdat(g) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}
func @w1(%x: i64) -> i64 noinline comdat(g) {
entry:
  %h = call i64 @whelp(i64 %x)
  %r = add i64 %h, 2
  ret i64 %r
}
func @w2(%x: i64) -> i64 noinline comdat(g) {
entry:
  %r = add i64 %x, 3
  ret i64 %r
}
func @whelp(%x: i64) -> i64 internal noinline comdat(g) {
entry:
  %r = mul i64 %x, 2
  ret i64 %r
}
func @main(%n: i64) -> i64 {
entry:
  %a = call i64 @w0(i64 %n)
  %b = call i64 @w1(i64 %a)
  %c = call i64 @w2(i64 %b)
  ret i64 %c
}
`

// deadMemberSrc adds an always-dead internal member to the group: GlobalDCE
// sweeps wdead from every compile of the fragment, whatever the probe state.
const deadMemberSrc = `
func @w0(%x: i64) -> i64 noinline comdat(g) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}
func @w1(%x: i64) -> i64 noinline comdat(g) {
entry:
  %r = add i64 %x, 2
  ret i64 %r
}
func @wdead(%x: i64) -> i64 internal noinline comdat(g) {
entry:
  %r = mul i64 %x, 9
  ret i64 %r
}
func @main(%n: i64) -> i64 {
entry:
  %a = call i64 @w0(i64 %n)
  %b = call i64 @w1(i64 %a)
  ret i64 %b
}
`

// putsSrc has two printf calls the optimizer rewrites to puts of a
// synthesised string (@hi.puts, @yo.puts): data the fragment object defines
// although no member or clone of the fragment names it.
const putsSrc = `
const @hi : [4 x i8] = bytes"\68\69\0a\00"
const @yo : [4 x i8] = bytes"\79\6f\0a\00"
declare func @printf(%fmt: ptr) -> i32
func @w0(%x: i64) -> i64 noinline comdat(g) {
entry:
  %p = call i32 @printf(ptr @hi)
  %r = add i64 %x, 1
  ret i64 %r
}
func @w1(%x: i64) -> i64 noinline comdat(g) {
entry:
  %p = call i32 @printf(ptr @yo)
  %r = add i64 %x, 2
  ret i64 %r
}
func @w2(%x: i64) -> i64 noinline comdat(g) {
entry:
  %r = add i64 %x, 3
  ret i64 %r
}
func @main(%n: i64) -> i64 {
entry:
  %a = call i64 @w0(i64 %n)
  %b = call i64 @w1(i64 %a)
  %c = call i64 @w2(i64 %b)
  ret i64 %c
}
`

// hookEngine builds an engine over src with the test hook builtin.
func hookEngine(t testing.TB, src string, opts Options) *Engine {
	t.Helper()
	m := irtext.MustParse("m", src)
	opts.ExtraBuiltins = append(opts.ExtraBuiltins, "__test_hit")
	e, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// probeOn adds a hookProbe on fn's entry block of e's pristine module.
func probeOn(t *testing.T, e *Engine, fn string, id int64) int {
	t.Helper()
	f := e.Pristine.LookupFunc(fn)
	if f == nil {
		t.Fatalf("no function @%s", fn)
	}
	return e.Manager.Add(&hookProbe{fnName: fn, block: f.Blocks[0], id: id})
}

// assertSameImage fails unless the two executables are byte-identical.
func assertSameImage(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	xa, xb := a.Executable(), b.Executable()
	if !reflect.DeepEqual(xa.Funcs, xb.Funcs) {
		t.Fatalf("%s: linked code differs from cold rebuild", label)
	}
	if len(xa.Data) != 0 || len(xb.Data) != 0 {
		if !reflect.DeepEqual(xa.Data, xb.Data) {
			t.Fatalf("%s: linked data differs from cold rebuild", label)
		}
	}
}

// fragStat returns the FragCompile of the fragment owning sym.
func fragStat(t *testing.T, e *Engine, stats *RebuildStats, sym string) FragCompile {
	t.Helper()
	id := e.Plan.FragOf[sym]
	for _, fc := range stats.Fragments {
		if fc.FragID == id {
			return fc
		}
	}
	t.Fatalf("fragment %d (owner of @%s) not in rebuild stats", id, sym)
	return FragCompile{}
}

func rebuildOnce(e *Engine) (*Engine, *RebuildStats, error) {
	sched, err := e.Schedule()
	if err != nil {
		return e, nil, err
	}
	_, stats, err := sched.Rebuild()
	return e, stats, err
}

// toggleShapes are the multi-function fragment programs the toggle tests
// probe, with the functions they probe and what main(5) returns and prints.
var toggleShapes = []struct {
	name, src string
	targets   []string
	main5     int64
	out       string
}{
	{"group", groupSrc, []string{"w1", "w2"}, 17, ""},
	{"dead-member", deadMemberSrc, []string{"w1"}, 8, ""},
	{"puts", putsSrc, []string{"w2", "w1", "w0"}, 11, "hi\nyo\n"},
}

// TestToggleEqualsCold: a probe toggled on inside a multi-function fragment
// recompiles that fragment whole into an image byte-identical to a cold
// build with the same probe, and toggling it off again gives the image of a
// never-probed cold build. The shapes are a group with an internal helper,
// a group with a dead internal member, and a group whose printf calls the
// optimizer turns into puts of synthesised strings.
func TestToggleEqualsCold(t *testing.T) {
	for _, tc := range toggleShapes {
		t.Run(tc.name, func(t *testing.T) {
			for _, target := range tc.targets {
				t.Run(target, func(t *testing.T) {
					opts := Options{Variant: VariantOdin, Workers: 1}
					e := hookEngine(t, tc.src, opts)
					if _, _, err := e.BuildAll(); err != nil {
						t.Fatal(err)
					}
					pid := probeOn(t, e, target, 1)
					_, stats, err := rebuildOnce(e)
					if err != nil {
						t.Fatal(err)
					}
					if fc := fragStat(t, e, stats, target); fc.CacheHit || fc.FuncsCompiled != fc.FuncsTotal {
						t.Fatalf("probed fragment not recompiled whole: %+v", fc)
					}
					cold := hookEngine(t, tc.src, opts)
					probeOn(t, cold, target, 1)
					if _, _, err := cold.BuildAll(); err != nil {
						t.Fatal(err)
					}
					assertSameImage(t, "probe on vs cold", e, cold)

					mach := vm.New(e.Executable())
					hits := 0
					mach.Env.Builtins["__test_hit"] = func(env *rt.Env, args []int64) (int64, error) {
						hits++
						return 0, nil
					}
					if r, err := mach.Run("main", 5); err != nil || r != tc.main5 {
						t.Fatalf("main(5) = %d, %v; want %d", r, err, tc.main5)
					}
					if hits != 1 {
						t.Fatalf("probe fired %d times, want 1", hits)
					}
					if got := mach.Env.Out.String(); got != tc.out {
						t.Fatalf("main printed %q, want %q", got, tc.out)
					}

					if err := e.Manager.Remove(pid); err != nil {
						t.Fatal(err)
					}
					if _, _, err := rebuildOnce(e); err != nil {
						t.Fatal(err)
					}
					never := hookEngine(t, tc.src, opts)
					if _, _, err := never.BuildAll(); err != nil {
						t.Fatal(err)
					}
					assertSameImage(t, "probe off vs never probed", e, never)
				})
			}
		})
	}
}

// groupsSrc builds n COMDAT groups of three noinline functions each
// (g<i>a calls g<i>b; g<i>c independent) plus a main summing the groups —
// a multi-fragment, multi-function workload for pool and allocation tests.
func groupsSrc(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `
func @g%da(%%x: i64) -> i64 noinline comdat(g%d) {
entry:
  %%h = call i64 @g%db(i64 %%x)
  %%r = add i64 %%h, %d
  ret i64 %%r
}
func @g%db(%%x: i64) -> i64 internal noinline comdat(g%d) {
entry:
  %%r = mul i64 %%x, %d
  ret i64 %%r
}
func @g%dc(%%x: i64) -> i64 noinline comdat(g%d) {
entry:
  %%r = xor i64 %%x, %d
  ret i64 %%r
}
`, i, i, i, i+1, i, i, i+2, i, i, i*5+3)
	}
	sb.WriteString("func @main(%x: i64) -> i64 {\nentry:\n  %s0 = add i64 %x, 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  %%a%d = call i64 @g%da(i64 %%x)\n", i, i)
		fmt.Fprintf(&sb, "  %%c%d = call i64 @g%dc(i64 %%a%d)\n", i, i, i)
		fmt.Fprintf(&sb, "  %%s%d = add i64 %%s%d, %%c%d\n", i+1, i, i)
	}
	fmt.Fprintf(&sb, "  ret i64 %%s%d\n}\n", n)
	return sb.String()
}

// TestToggleAllocBudget pins the steady-state allocation cost of a
// single-probe toggle — the hot loop of a fuzzing campaign. Two probes with
// different IDs alternate on g0a, so every enable is a state neither of the
// fragment's two generations holds and recompiles the fragment whole, while
// every disable reverts to the previous generation and is a cache hit. Each
// half has its own budget, about twice its measured cost, so it catches a
// clone or a side table that starts scaling with the program rather than
// the fragment without flaking on allocator noise.
func TestToggleAllocBudget(t *testing.T) {
	e := hookEngine(t, groupsSrc(8), Options{Variant: VariantOdin, Workers: 1})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	f := e.Pristine.LookupFunc("g0a")
	probes := [2]*hookProbe{{fnName: "g0a", block: f.Blocks[0], id: 1}, {fnName: "g0a", block: f.Blocks[0], id: 2}}
	var pid, n int
	rebuild := func(hit bool) {
		_, stats, err := rebuildOnce(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Fragments) != 1 {
			t.Fatalf("toggle rebuilt %d fragments, want 1: %+v", len(stats.Fragments), stats)
		}
		want := stats.Fragments[0].FuncsTotal
		if hit {
			want = 0
		}
		if fc := stats.Fragments[0]; fc.CacheHit != hit || fc.FuncsCompiled != want {
			t.Fatalf("toggle compiled %d functions (cache hit %v), want %d (cache hit %v)", fc.FuncsCompiled, fc.CacheHit, want, hit)
		}
	}
	on := func() {
		pid = e.Manager.Add(probes[n%2])
		n++
		rebuild(false)
	}
	off := func() {
		if err := e.Manager.Remove(pid); err != nil {
			t.Fatal(err)
		}
		rebuild(true)
	}
	on()
	off()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	var onAllocs, offAllocs uint64
	for i := 0; i < runs; i++ {
		onAllocs += mallocs(on)
		offAllocs += mallocs(off)
	}
	const budget, hitBudget = 600, 180
	if avg := onAllocs / runs; avg > budget {
		t.Fatalf("probe enable allocates %d objects/op, budget %d", avg, budget)
	}
	if avg := offAllocs / runs; avg > hitBudget {
		t.Fatalf("probe revert allocates %d objects/op, budget %d", avg, hitBudget)
	}
	t.Logf("probe enable: %d allocs/op (budget %d); revert: %d allocs/op (budget %d)",
		onAllocs/runs, budget, offAllocs/runs, hitBudget)
}

// mallocs counts the heap allocations f makes, as testing.AllocsPerRun does.
func mallocs(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}
