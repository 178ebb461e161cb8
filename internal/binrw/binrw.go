// Package binrw implements the DynInst/libInst baseline: static binary
// rewriting with trampoline-based block probes.
//
// DynInst-style instrumentation relocates each probe point through a
// trampoline: execution jumps out of line, the trampoline saves the full
// register context (the rewriter cannot know which registers are live),
// runs the instrumentation payload through a normal function-call ABI,
// restores the context, and jumps back. That context churn on every basic
// block is why the paper measures libInst at ~20x slowdown (§5.1). The
// rewriting itself happens before execution, so there is no translation
// cost at run time.
package binrw

import (
	"odin/internal/binpatch"
	"odin/internal/link"
	"odin/internal/mir"
	"odin/internal/rt"
	"odin/internal/vm"
)

// Cost model constants (cycles).
const (
	// TrampolineJumps: the springboard out and the jump back.
	TrampolineJumps = 4
	// ContextSave models saving the full architectural context: 12 GPRs,
	// flags, and the 16-slot vector state a safe rewriter must preserve
	// (~100 memory operations at 3 cycles each), plus stack switching and
	// serialization.
	ContextSave = 320
	// ContextRestore mirrors ContextSave.
	ContextRestore = 320
	// PayloadCall is the instrumentation payload invocation (call, ret,
	// frame setup of the coverage callback).
	PayloadCall = 20
)

// Meta describes a rewritten image.
type Meta struct {
	NumBlocks   int
	CounterBase int64
}

// Instrument statically rewrites every basic block of the executable with a
// trampoline that bumps the block's coverage counter.
func Instrument(exe *link.Executable) (*link.Executable, *Meta) {
	ne := binpatch.CloneExecutable(exe)
	meta := &Meta{}
	counterBase := rt.GlobalBase + int64(len(exe.Data))
	counterBase = (counterBase + 4095) &^ 4095
	meta.CounterBase = counterBase

	blockID := 0
	for fi := range ne.Funcs {
		f := &ne.Funcs[fi]
		var ins []binpatch.Insertion
		for _, start := range f.BlockStarts {
			code := []mir.Inst{
				{Op: mir.CostSim, Imm: TrampolineJumps},
				{Op: mir.CostSim, Imm: ContextSave},
				{Op: mir.CostSim, Imm: PayloadCall},
				{Op: mir.Probe, ProbeAddr: counterBase + int64(blockID)},
				{Op: mir.CostSim, Imm: ContextRestore},
			}
			ins = append(ins, binpatch.Insertion{At: start, Code: code})
			blockID++
		}
		binpatch.RewriteFunc(f, ins)
	}
	meta.NumBlocks = blockID
	return ne, meta
}

// Coverage reads the coverage table from a machine that ran the build.
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
