package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"odin/internal/faultinject"
	"odin/internal/irtext"
	"odin/internal/rt"
	"odin/internal/vm"
)

// spliceGroupSrc is the function-granular cache's canonical workload: a
// COMDAT group bonds four noinline functions into ONE fragment (innate
// pairs cluster under every variant), so toggling a probe on one of them
// dirties the fragment while leaving three member functions' IR untouched.
// whelp is internal and reachable only through w1, giving the splice a
// non-trivial reference closure (probing w1 must show the optimizer whelp's
// definition) and the object-level sweep a Local-linkage symbol to keep.
const spliceGroupSrc = `
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

// spliceEngine builds an engine over src with the test hook builtin.
func spliceEngine(t *testing.T, src string, opts Options) *Engine {
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

// spliceFragStat returns the FragCompile of the fragment owning sym.
func spliceFragStat(t *testing.T, e *Engine, stats *RebuildStats, sym string) FragCompile {
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

// TestSpliceSingleFunctionToggle is the tentpole's acceptance scenario:
// toggling one probe inside a multi-function fragment compiles exactly the
// dirty function (plus nothing, when its closure is empty), splices the
// cached machine code of the rest, and produces an image byte-identical to
// a cold engine built with the same probe state.
func TestSpliceSingleFunctionToggle(t *testing.T) {
	cases := []struct {
		target        string
		funcsCompiled int // dirty set after closure pruning
	}{
		// w2 references no member function: only w2 recompiles.
		{"w2", 1},
		// w1 calls whelp: whelp's definition must be shown to the
		// optimizer (closure), but whelp itself is clean and stays cached.
		{"w1", 1},
	}
	for _, tc := range cases {
		t.Run(tc.target, func(t *testing.T) {
			e := spliceEngine(t, spliceGroupSrc, Options{Variant: VariantOdin, Workers: 1})
			if _, _, err := e.BuildAll(); err != nil {
				t.Fatal(err)
			}
			probeOn(t, e, tc.target, 1)
			sched, err := e.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := sched.Rebuild()
			if err != nil {
				t.Fatal(err)
			}
			fc := spliceFragStat(t, e, stats, tc.target)
			if !fc.Spliced {
				t.Fatalf("fragment not spliced: %+v", fc)
			}
			if fc.FuncsTotal != 4 {
				t.Fatalf("FuncsTotal = %d, want 4", fc.FuncsTotal)
			}
			if fc.FuncsCompiled != tc.funcsCompiled {
				t.Fatalf("FuncsCompiled = %d, want %d", fc.FuncsCompiled, tc.funcsCompiled)
			}
			if want := 4 - tc.funcsCompiled; fc.FuncCacheHits != want {
				t.Fatalf("FuncCacheHits = %d, want %d", fc.FuncCacheHits, want)
			}
			if stats.Spliced != 1 || stats.FuncsCompiled != tc.funcsCompiled {
				t.Fatalf("stats: spliced=%d funcs_compiled=%d", stats.Spliced, stats.FuncsCompiled)
			}

			// Cold comparator: fresh engine, same probe, first build.
			cold := spliceEngine(t, spliceGroupSrc, Options{Variant: VariantOdin, Workers: 1})
			probeOn(t, cold, tc.target, 1)
			if _, _, err := cold.BuildAll(); err != nil {
				t.Fatal(err)
			}
			assertSameImage(t, "spliced vs cold", e, cold)

			// Baseline comparator: splicing disabled, whole-fragment path.
			base := spliceEngine(t, spliceGroupSrc, Options{Variant: VariantOdin, Workers: 1, NoFuncCache: true})
			if _, _, err := base.BuildAll(); err != nil {
				t.Fatal(err)
			}
			probeOn(t, base, tc.target, 1)
			bs, err := base.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			_, bstats, err := bs.Rebuild()
			if err != nil {
				t.Fatal(err)
			}
			bfc := spliceFragStat(t, base, bstats, tc.target)
			if bfc.Spliced || bfc.FuncsCompiled != bfc.FuncsTotal {
				t.Fatalf("NoFuncCache arm spliced anyway: %+v", bfc)
			}
			assertSameImage(t, "spliced vs NoFuncCache", e, base)

			// The spliced image must also behave: probe fires, result right.
			mach := vm.New(e.Executable())
			var hits int
			mach.Env.Builtins["__test_hit"] = func(env *rt.Env, args []int64) (int64, error) {
				hits++
				return 0, nil
			}
			// main(5): w0=6, whelp=12, w1=14, w2=17.
			if r, err := mach.Run("main", 5); err != nil || r != 17 {
				t.Fatalf("main(5) = %d, %v; want 17", r, err)
			}
			if hits != 1 {
				t.Fatalf("probe fired %d times, want 1", hits)
			}
		})
	}
}

// TestSpliceRevert: removing the probe restores the fragment's original IR,
// and the deep hashes stored by the SPLICED compile must make the revert a
// splice too (only the previously-probed function recompiles). This guards
// the meta lifecycle through fragState.commit.
func TestSpliceRevert(t *testing.T) {
	e := spliceEngine(t, spliceGroupSrc, Options{Variant: VariantOdin, Workers: 1})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	pid := probeOn(t, e, "w2", 1)
	if _, _, err := rebuildOnce(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Manager.Remove(pid); err != nil {
		t.Fatal(err)
	}
	_, stats, err := rebuildOnce(e)
	if err != nil {
		t.Fatal(err)
	}
	fc := spliceFragStat(t, e, stats, "w2")
	if !fc.Spliced || fc.FuncsCompiled != 1 || fc.FuncCacheHits != 3 {
		t.Fatalf("revert not spliced: %+v", fc)
	}
	// After revert the image equals a never-probed cold build.
	cold := spliceEngine(t, spliceGroupSrc, Options{Variant: VariantOdin, Workers: 1})
	if _, _, err := cold.BuildAll(); err != nil {
		t.Fatal(err)
	}
	assertSameImage(t, "reverted vs cold", e, cold)
}

func rebuildOnce(e *Engine) (*Engine, *RebuildStats, error) {
	sched, err := e.Schedule()
	if err != nil {
		return e, nil, err
	}
	_, stats, err := sched.Rebuild()
	return e, stats, err
}

// spliceDeadSrc adds an always-dead internal member to the group: GlobalDCE
// sweeps wdead from every whole-fragment object, so it is absent from the
// cached object while its IR fingerprint stays clean. The splice must
// recompile it (the new image could have revived it) and the object-level
// sweep must remove it again — byte-identically to the cold compile.
const spliceDeadSrc = `
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

func TestSpliceDeadFunctionStaysDead(t *testing.T) {
	e := spliceEngine(t, spliceDeadSrc, Options{Variant: VariantOdin, Workers: 1})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	probeOn(t, e, "w1", 1)
	_, stats, err := rebuildOnce(e)
	if err != nil {
		t.Fatal(err)
	}
	fc := spliceFragStat(t, e, stats, "w1")
	if !fc.Spliced {
		t.Fatalf("fragment not spliced: %+v", fc)
	}
	// Dirty w1 plus clean-but-swept wdead recompile; w0 splices from cache.
	if fc.FuncsCompiled != 2 || fc.FuncCacheHits != 1 {
		t.Fatalf("funcs compiled/hits = %d/%d, want 2/1", fc.FuncsCompiled, fc.FuncCacheHits)
	}
	for _, f := range e.Executable().Funcs {
		if strings.Contains(f.Name, "wdead") {
			t.Fatalf("dead function @wdead survived the spliced sweep")
		}
	}
	cold := spliceEngine(t, spliceDeadSrc, Options{Variant: VariantOdin, Workers: 1})
	probeOn(t, cold, "w1", 1)
	if _, _, err := cold.BuildAll(); err != nil {
		t.Fatal(err)
	}
	assertSameImage(t, "dead-sweep splice vs cold", e, cold)
}

// splicePutsSrc has two printf calls the optimizer rewrites to puts of a
// synthesised string (@hi.puts, @yo.puts). Neither function references the
// other, so probing one leaves the other cached and outside the reduced
// compile: its string exists only in the cached object.
const splicePutsSrc = `
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

// TestSpliceCarriesSynthesisedData: the strings instcombine made for cached
// functions must come along with their code, in cold-compile order, whichever
// function recompiles — the reduced compile makes none of them (w2), the
// later one (w1) or the earlier one (w0).
func TestSpliceCarriesSynthesisedData(t *testing.T) {
	for _, target := range []string{"w2", "w1", "w0"} {
		t.Run(target, func(t *testing.T) {
			e := spliceEngine(t, splicePutsSrc, Options{Variant: VariantOdin, Workers: 1})
			if _, _, err := e.BuildAll(); err != nil {
				t.Fatal(err)
			}
			var synth []string
			for _, d := range e.frags[e.Plan.FragOf["w0"]].obj.Datas {
				if strings.HasSuffix(d.Name, ".puts") {
					synth = append(synth, d.Name)
				}
			}
			if !reflect.DeepEqual(synth, []string{"hi.puts", "yo.puts"}) {
				t.Fatalf("cold object's synthesised datas = %v: the rewrite did not fire as the test assumes", synth)
			}
			probeOn(t, e, target, 1)
			_, stats, err := rebuildOnce(e)
			if err != nil {
				t.Fatal(err)
			}
			if fc := spliceFragStat(t, e, stats, target); !fc.Spliced || fc.FuncsCompiled != 1 {
				t.Fatalf("fragment not spliced: %+v", fc)
			}
			cold := spliceEngine(t, splicePutsSrc, Options{Variant: VariantOdin, Workers: 1})
			probeOn(t, cold, target, 1)
			if _, _, err := cold.BuildAll(); err != nil {
				t.Fatal(err)
			}
			assertSameImage(t, "spliced vs cold", e, cold)
		})
	}
}

// TestSpliceCodegenFuncFault: an injected fault at the new per-function
// codegen site aborts the splice; the whole-fragment ladder takes over and
// the committed image is still byte-identical to a fault-free cold build.
func TestSpliceCodegenFuncFault(t *testing.T) {
	in := faultinject.New(7)
	e := spliceEngine(t, spliceGroupSrc, Options{
		Variant:   VariantOdin,
		Workers:   1,
		FaultHook: in.At,
	})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	probeOn(t, e, "w2", 1)
	// One transient fault: the splice's reduced compile hits it; the
	// whole-fragment retry does not.
	in.Arm(faultinject.Rule{Site: "codegen:w2", Kind: faultinject.KindError, Rate: 1, Times: 1})
	_, stats, err := rebuildOnce(e)
	if err != nil {
		t.Fatal(err)
	}
	fc := spliceFragStat(t, e, stats, "w2")
	if fc.Spliced || !fc.SpliceFallback || fc.SpliceFallbackReason != "codegen" {
		t.Fatalf("want splice fallback at codegen, got %+v", fc)
	}
	if fc.Degraded || fc.FuncsCompiled != fc.FuncsTotal {
		t.Fatalf("fallback should be a clean whole-fragment compile: %+v", fc)
	}
	if stats.SpliceFallbacks != 1 || stats.Spliced != 0 {
		t.Fatalf("stats: fallbacks=%d spliced=%d", stats.SpliceFallbacks, stats.Spliced)
	}
	if got := in.Injected()["codegen:w2"]; got != 1 {
		t.Fatalf("injected %d faults at codegen:w2, want 1", got)
	}
	cold := spliceEngine(t, spliceGroupSrc, Options{Variant: VariantOdin, Workers: 1})
	probeOn(t, cold, "w2", 1)
	if _, _, err := cold.BuildAll(); err != nil {
		t.Fatal(err)
	}
	assertSameImage(t, "fault fallback vs cold", e, cold)
}

// TestSpliceDegradedObjectNotDonor: an object produced by a degraded compile
// must not serve as a splice donor — its machine code does not correspond to
// the configured level's deep hashes. A persistent opt-pass fault degrades
// the fragment; the next toggle must recompile whole, not splice.
func TestSpliceDegradedObjectNotDonor(t *testing.T) {
	in := faultinject.New(3)
	e := spliceEngine(t, spliceGroupSrc, Options{
		Variant:   VariantOdin,
		Workers:   1,
		FaultHook: in.At,
	})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	// Degrade the group fragment: fault its next whole-fragment compile once
	// (the splice is not attempted below because instcombine faults during
	// the reduced compile too, and the ladder then degrades).
	probeOn(t, e, "w2", 1)
	in.Arm(faultinject.Rule{Site: "opt:instcombine", Kind: faultinject.KindError, Rate: 1, Times: 4})
	_, stats, err := rebuildOnce(e)
	if err != nil {
		t.Fatal(err)
	}
	fc := spliceFragStat(t, e, stats, "w2")
	if !fc.Degraded {
		t.Skipf("fragment did not degrade under opt fault (stats %+v); ladder behavior changed", fc)
	}
	// Toggle again: the cached object is degraded, so no splice may occur.
	probeOn(t, e, "w0", 2)
	_, stats2, err := rebuildOnce(e)
	if err != nil {
		t.Fatal(err)
	}
	fc2 := spliceFragStat(t, e, stats2, "w0")
	if fc2.Spliced {
		t.Fatalf("degraded object used as splice donor: %+v", fc2)
	}
}

// spliceGroupsSrc builds n COMDAT groups of three noinline functions each
// (g<i>a calls g<i>b; g<i>c independent) plus a main summing the groups —
// a multi-fragment, multi-function workload for pool and bench tests.
func spliceGroupsSrc(n int) string {
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

// TestSpliceAllocBudget pins the steady-state allocation cost of a
// single-function probe toggle — the hot loop of a fuzzing campaign. The
// splice path's lazy materialization and the arena-backed clone scratch are
// what keep this flat; the budget has ~4x headroom over the measured cost so
// it catches an accidental return to whole-fragment cloning (which scales
// with fragment size) without flaking on allocator noise.
func TestSpliceAllocBudget(t *testing.T) {
	e := spliceEngine(t, spliceGroupsSrc(8), Options{Variant: VariantOdin, Workers: 1})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	f := e.Pristine.LookupFunc("g0a")
	probe := &hookProbe{fnName: "g0a", block: f.Blocks[0], id: 1}
	var pid int
	on := false
	toggle := func() {
		if on {
			if err := e.Manager.Remove(pid); err != nil {
				t.Fatal(err)
			}
		} else {
			pid = e.Manager.Add(probe)
		}
		on = !on
		_, stats, err := rebuildOnce(e)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Spliced != 1 || stats.FuncsCompiled != 1 {
			t.Fatalf("toggle did not splice exactly one function: %+v", stats)
		}
	}
	toggle() // warm both probe states' cache metadata
	toggle()
	avg := testing.AllocsPerRun(20, toggle)
	const budget = 1000
	if avg > budget {
		t.Fatalf("probe toggle allocates %.0f objects/op, budget %d", avg, budget)
	}
	t.Logf("probe toggle: %.0f allocs/op (budget %d)", avg, budget)
}
