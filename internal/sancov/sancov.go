// Package sancov implements the SanitizerCoverage baseline: compiler-based
// static block-coverage instrumentation with 8-bit counters.
//
// Faithful to the original's design point (paper §2.1, §5.1), the pass runs
// at the very end of the optimization pipeline — instrumenting *after*
// optimization keeps the probes cheap and the optimizer unhindered, but the
// instrumented blocks are the optimizer's blocks, not the program's: merged,
// folded, and rearranged (the correctness compromise §2.2 demonstrates).
// Probes are never removed; the overhead is paid for the whole campaign.
package sancov

import (
	"fmt"

	"odin/internal/codegen"
	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/obj"
	"odin/internal/opt"
	"odin/internal/toolchain"
	"odin/internal/vm"
)

// CountersSym is the counter array's symbol name.
const CountersSym = "__sancov_counters"

// BlockInfo identifies one instrumented (post-optimization) block.
type BlockInfo struct {
	Func  string
	Block string
}

// Meta describes an instrumented build.
type Meta struct {
	NumProbes int
	Blocks    []BlockInfo
	// CounterAddr is the data address of the counter array after linking.
	CounterAddr int64
}

// Build optimizes a clone of m at the given level, instruments every
// surviving basic block with an inline 8-bit counter, and links the result.
func Build(m *ir.Module, level int) (*link.Executable, *Meta, error) {
	clone, _ := ir.CloneModule(m)
	opt.Optimize(clone, &opt.Options{Level: level})
	meta, err := Instrument(clone)
	if err != nil {
		return nil, nil, err
	}
	o, err := codegen.CompileModule(clone)
	if err != nil {
		return nil, nil, err
	}
	exe, err := link.Link([]*obj.Object{o}, toolchain.StdBuiltins())
	if err != nil {
		return nil, nil, err
	}
	addr, ok := exe.DataAddr[CountersSym]
	if !ok {
		return nil, nil, fmt.Errorf("sancov: counter array not linked")
	}
	meta.CounterAddr = addr
	return exe, meta, nil
}

// Instrument adds the counter array and one counter increment at the head
// of every basic block of every defined function in m (in place).
func Instrument(m *ir.Module) (*Meta, error) {
	if m.Lookup(CountersSym) != nil {
		return nil, fmt.Errorf("sancov: module already instrumented")
	}
	meta := &Meta{}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		for _, b := range f.Blocks {
			meta.Blocks = append(meta.Blocks, BlockInfo{Func: f.Name, Block: b.Name})
		}
	}
	meta.NumProbes = len(meta.Blocks)
	n := int64(meta.NumProbes)
	if n == 0 {
		n = 1
	}
	counters := m.AddGlobal(&ir.GlobalVar{
		Name: CountersSym,
		Elem: &ir.ArrayType{Elem: ir.I8, Len: n},
	})
	id := int64(0)
	bld := ir.NewBuilder()
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		for _, b := range f.Blocks {
			bld.SetInsertBefore(b, len(b.Phis()))
			bld.CounterInc(counters, id)
			id++
		}
	}
	return meta, ir.Verify(m)
}

// Coverage reads the counter array out of a machine that ran the build.
func Coverage(mach *vm.Machine, meta *Meta) []byte {
	return mach.Counters(meta.CounterAddr, meta.NumProbes)
}

// CoveredBlocks returns how many probes have fired at least once.
func CoveredBlocks(mach *vm.Machine, meta *Meta) int {
	n := 0
	for _, c := range Coverage(mach, meta) {
		if c != 0 {
			n++
		}
	}
	return n
}

// ResetCoverage zeroes the counters between inputs.
func ResetCoverage(mach *vm.Machine, meta *Meta) {
	if err := mach.Env.Fill(meta.CounterAddr, int64(meta.NumProbes), 0); err != nil {
		panic(err) // meta does not describe the image mach runs
	}
}
