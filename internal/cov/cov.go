// Package cov implements OdinCov and OdinCmp, the instrumentation tools
// built on the Odin framework (paper §4, §5).
//
// OdinCov records a hit count for each basic block of the *original*
// (pre-optimization) program and prunes already-triggered probes at runtime
// the way Untracer does — except through recompilation rather than binary
// patching. OdinCov-NoPrune is the same tool with pruning disabled,
// isolating the cost of instrument-first static instrumentation (§5.1).
//
// OdinCmp is the CmpLog-style comparison-operand probe from §4: it reports
// the original, undistorted operands of comparisons, which instrument-first
// placement guarantees (§2.2).
package cov

import (
	"fmt"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/rt"
)

// Runtime hook symbols bound by the linker.
const (
	HitHook = "__odin_cov_hit"
	CmpHook = "__odin_cmp_hit"
)

// BlockProbe instruments one basic block of the pristine IR. Probe-specific
// information is stored freely on the probe object (§4): here the block
// reference and the dynamic hit count.
type BlockProbe struct {
	ID       int64
	FuncName string
	Block    *ir.Block
	// Hits is profiling data annotated onto the probe by the tool.
	Hits uint64
}

// PatchTarget implements core.Probe.
func (p *BlockProbe) PatchTarget() string { return p.FuncName }

// Instrument implements core.Instrumenter: insert a call to the coverage
// hook at the head of the block's temporary-IR clone. The probe setup,
// instrumentation, and prune logic together total a few dozen lines — the
// brevity §5.1 contrasts with DrCov's ~600-line callback machinery.
func (p *BlockProbe) Instrument(s *core.Sched) error {
	nb := s.MapBlock(p.Block)
	if nb == nil {
		return fmt.Errorf("cov: block %s of @%s not in recompilation", p.Block.Name, p.FuncName)
	}
	hook := s.LookupFunction(HitHook, &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(nb, len(nb.Phis()))
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, p.ID))
	return nil
}

// Result is one program execution under the tool.
type Result struct {
	Ret    int64
	Out    string
	Cycles int64
	Err    error
}

// Tool is OdinCov: the engine, one probe per original basic block, and the
// prune policy.
type Tool struct {
	binding
	Probes []*BlockProbe
	// Prune controls Untracer-style removal of triggered probes
	// (false = OdinCov-NoPrune).
	Prune bool

	Rebuilds []core.RebuildStats
}

// New partitions the program, installs a probe on every basic block, and
// performs the initial build.
func New(m *ir.Module, opts core.Options, prune bool) (*Tool, error) {
	opts.ExtraBuiltins = append(opts.ExtraBuiltins, HitHook)
	eng, err := core.New(m, opts)
	if err != nil {
		return nil, err
	}
	t := &Tool{binding: binding{Engine: eng}, Prune: prune}
	for _, f := range eng.Pristine.Funcs {
		if f.IsDecl() {
			continue
		}
		for _, b := range f.Blocks {
			p := &BlockProbe{ID: int64(len(t.Probes)), FuncName: f.Name, Block: b}
			t.Probes = append(t.Probes, p)
			t.mgrIDs = append(t.mgrIDs, eng.Manager.Add(p))
		}
	}
	_, stats, err := eng.BuildAll()
	if err != nil {
		return nil, err
	}
	t.Rebuilds = append(t.Rebuilds, *stats)
	t.bind(map[string]rt.Builtin{
		HitHook: countingHook(len(t.Probes), func(id int64) { t.Probes[id].Hits++ }),
	}, len(t.Probes))
	return t, nil
}

// ManagerID returns the PatchManager ID of the i-th probe, letting external
// drivers (e.g. odin-fuzz -storm) toggle coverage probes through a
// core.Supervisor instead of the tool's own prune loop.
func (t *Tool) ManagerID(i int) int { return t.mgrIDs[i] }

// MaybePrune removes every triggered, still-active probe and recompiles the
// affected fragments, returning how many probes were pruned. With pruning
// disabled it reports 0 without touching the build.
func (t *Tool) MaybePrune() (int, error) {
	if !t.Prune {
		return 0, nil
	}
	pruned, stats, err := t.prune(func(i int) bool { return t.Probes[i].Hits > 0 })
	if stats != nil {
		t.Rebuilds = append(t.Rebuilds, *stats)
	}
	return pruned, err
}

// CoveredCount returns how many blocks have been hit at least once.
func (t *Tool) CoveredCount() int {
	n := 0
	for _, p := range t.Probes {
		if p.Hits > 0 {
			n++
		}
	}
	return n
}

// ActiveProbes returns how many probes are still compiled in.
func (t *Tool) ActiveProbes() int { return t.Engine.Manager.NumActive() }

// Executable returns the current program image.
func (t *Tool) Executable() *link.Executable { return t.Engine.Executable() }
