// Quickstart: partition a program, instrument one basic block on demand,
// execute, then remove the probe with an on-the-fly recompilation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/rt"
	"odin/internal/vm"
)

// The target program, in the textual IR the toolchain accepts. The
// islower-style bounds check is the paper's Figure 2 example: optimizing it
// folds both comparisons away — unless a probe needs them.
const program = `
declare func @print_i64(%v: i64) -> void
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
func @main() -> i64 {
entry:
  br head
head:
  %i = phi i64 [0, entry], [%i2, body]
  %n = phi i64 [0, entry], [%n2, body]
  %c = icmp slt i64 %i, 256
  condbr %c, body, exit
body:
  %ch = trunc i64 %i to i8
  %low = call i1 @islower(i8 %ch)
  %low64 = zext i1 %low to i64
  %n2 = add i64 %n, %low64
  %i2 = add i64 %i, 1
  br head
exit:
  call void @print_i64(i64 %n)
  ret i64 %n
}
`

// blockProbe instruments one pristine basic block with a hook call.
type blockProbe struct {
	fn    string
	block *ir.Block
	id    int64
}

func (p *blockProbe) PatchTarget() string { return p.fn }

func (p *blockProbe) Instrument(s *core.Sched) error {
	blk := s.MapBlock(p.block)
	if blk == nil {
		return fmt.Errorf("block not scheduled")
	}
	hook := s.LookupFunction("on_block", &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(blk, len(blk.Phis()))
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, p.id))
	return nil
}

func main() {
	m, err := irtext.Parse("quickstart", program)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Partition. Odin surveys the program with a trial optimization
	// run and creates the fragment plan.
	engine, err := core.New(m, core.Options{
		Variant:       core.VariantOdin,
		ExtraBuiltins: []string{"on_block"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned into %d fragments:\n%s\n", len(engine.Plan.Fragments), engine.Plan.Describe())

	// 2. Add a probe on islower's upper-bound check — referencing the
	// PRISTINE module; recompilations instrument temporary copies.
	islower := engine.Pristine.LookupFunc("islower")
	probe := &blockProbe{fn: "islower", block: islower.Blocks[1], id: 7}
	probeID := engine.Manager.Add(probe)

	// 3. Build and run.
	exe, stats, err := engine.BuildAll()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial build: %d fragments compiled, linked in %v\n\n",
		len(stats.Fragments), stats.LinkDur)

	// One machine serves both images: the hook stays installed, and Rebind
	// below moves the machine to the rebuilt executable.
	mach := vm.New(exe)
	hits := 0
	mach.Env.Builtins["on_block"] = func(env *rt.Env, args []int64) (int64, error) {
		hits++
		return 0, nil
	}
	run := func(tag string) {
		mach.Reset()
		hits = 0
		ret, err := mach.Run("main")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: main() = %d, output %q, probe hits %d, cycles %d\n",
			tag, ret, mach.Env.Out.String(), hits, mach.Cycles)
	}
	run("with probe   ")

	// 4. The probe is no longer needed: remove it. Only islower's
	// fragment is recompiled; every other fragment's machine code is
	// reused from the cache.
	if err := engine.Manager.Remove(probeID); err != nil {
		log.Fatal(err)
	}
	sched, err := engine.Schedule()
	if err != nil {
		log.Fatal(err)
	}
	exe, stats, err = sched.Rebuild()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\non-the-fly recompilation: %d of %d fragments rebuilt in %v\n",
		len(stats.Fragments), len(engine.Plan.Fragments), stats.Total)
	mach.Rebind(exe)
	run("without probe")
}
