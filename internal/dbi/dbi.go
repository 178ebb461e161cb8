// Package dbi implements the DynamoRIO/DrCov baseline: dynamic binary
// translation with block-granularity coverage probes.
//
// A dynamic binary translator copies each basic block into a code cache the
// first time it executes, chaining blocks together and dispatching through
// the cache on control transfers. The model reproduces its three costs:
//
//   - a one-time translation cost per block (paid on first execution;
//     the harness adds Meta.TranslationCycles once per campaign);
//   - a per-block-entry dispatch/chaining cost (CostSim);
//   - for DrCov, a per-block counter probe at machine level (mir.Probe),
//     which must steal a register and therefore costs more than a
//     compiler-scheduled increment.
//
// Calls and returns exit the code cache and re-enter the dispatcher, adding
// a larger cost. These constants are the model's knobs; the experiments
// depend on their order of magnitude (DBI baseline tens of percent, per
// the ~63% PIN no-tool overhead and DrCov's 63% median in §5.1), not their
// exact values.
package dbi

import (
	"odin/internal/binpatch"
	"odin/internal/link"
	"odin/internal/mir"
	"odin/internal/rt"
	"odin/internal/vm"
)

// Cost model constants (cycles).
const (
	// BlockDispatchCost models code-cache chaining at each block entry.
	BlockDispatchCost = 4
	// CallDispatchCost models exiting/re-entering the code cache on
	// calls and returns.
	CallDispatchCost = 12
	// TranslateCostPerInstr models decoding + copying one instruction
	// into the code cache (paid once per block, on first execution).
	TranslateCostPerInstr = 12
)

// Meta describes a translated image.
type Meta struct {
	NumBlocks int
	// CounterBase is the address of the DrCov coverage table (one byte
	// per block) in the program's address space.
	CounterBase int64
	// TranslationCycles is the one-time cost of translating every block;
	// campaigns add it once (all blocks eventually execute).
	TranslationCycles int64
}

// Instrument translates the executable. withProbes selects DrCov (coverage
// table updates) versus a null tool (pure translation overhead).
func Instrument(exe *link.Executable, withProbes bool) (*link.Executable, *Meta) {
	ne := binpatch.CloneExecutable(exe)
	meta := &Meta{}
	counterBase := rt.GlobalBase + int64(len(exe.Data))
	counterBase = (counterBase + 4095) &^ 4095
	meta.CounterBase = counterBase

	blockID := 0
	var translation int64
	for fi := range ne.Funcs {
		f := &ne.Funcs[fi]
		var ins []binpatch.Insertion
		for _, start := range f.BlockStarts {
			code := []mir.Inst{{Op: mir.CostSim, Imm: BlockDispatchCost}}
			if withProbes {
				code = append(code, mir.Inst{
					Op:        mir.Probe,
					ProbeAddr: counterBase + int64(blockID),
				})
			}
			ins = append(ins, binpatch.Insertion{At: start, Code: code})
			blockID++
		}
		for idx, in := range f.Code {
			if in.Op == mir.Call || in.Op == mir.Ret {
				ins = append(ins, binpatch.Insertion{
					At:   idx,
					Code: []mir.Inst{{Op: mir.CostSim, Imm: CallDispatchCost}},
				})
			}
		}
		translation += int64(len(f.Code)) * TranslateCostPerInstr
		binpatch.RewriteFunc(f, ins)
	}
	meta.NumBlocks = blockID
	meta.TranslationCycles = translation
	return ne, meta
}

// Coverage reads the DrCov table from a machine that ran the build.
func Coverage(mach *vm.Machine, meta *Meta) []byte {
	return mach.Counters(meta.CounterBase, meta.NumBlocks)
}

// CoveredBlocks counts blocks hit at least once.
func CoveredBlocks(mach *vm.Machine, meta *Meta) int {
	n := 0
	for _, c := range Coverage(mach, meta) {
		if c != 0 {
			n++
		}
	}
	return n
}
