package cov

import (
	"fmt"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/rt"
)

// EdgeHook is the runtime hook edge probes call.
const EdgeHook = "__odin_edge_hit"

// EdgeProbe records traversal of one control-flow edge of the original
// program — the AFL-style edge-coverage scheme. Applying it requires
// splitting the edge with a fresh block on the temporary IR, something a
// lightweight binary instrumenter cannot do (it cannot change code layout,
// §6.3) and that is trivial at IR level.
type EdgeProbe struct {
	ID       int64
	FuncName string
	From, To *ir.Block
	Hits     uint64
}

// PatchTarget implements core.Probe.
func (p *EdgeProbe) PatchTarget() string { return p.FuncName }

// Instrument implements core.Instrumenter: split the From->To edge and call
// the hook in the new block.
func (p *EdgeProbe) Instrument(s *core.Sched) error {
	from := s.MapBlock(p.From)
	to := s.MapBlock(p.To)
	if from == nil || to == nil {
		return fmt.Errorf("cov: edge %s->%s of @%s not in recompilation", p.From.Name, p.To.Name, p.FuncName)
	}
	hook := s.LookupFunction(EdgeHook, &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	mid, err := SplitEdge(from, to)
	if err != nil {
		return err
	}
	b := ir.NewBuilder()
	b.SetInsertBefore(mid, 0)
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, p.ID))
	return nil
}

// SplitEdge inserts a fresh block on the from->to edge, retargeting the
// terminator and to's phis. It returns the new block (which ends in an
// unconditional branch to to).
func SplitEdge(from, to *ir.Block) (*ir.Block, error) {
	f := from.Parent
	term := from.Term()
	if term == nil {
		return nil, fmt.Errorf("cov: block %s has no terminator", from.Name)
	}
	found := false
	for _, t := range term.Targets {
		if t == to {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cov: no edge %s->%s", from.Name, to.Name)
	}
	mid := &ir.Block{Name: f.UniqueLabel(from.Name + "." + to.Name), Parent: f}
	// Insert after from for readable ordering.
	idx := f.BlockIndex(from) + 1
	f.Blocks = append(f.Blocks, nil)
	copy(f.Blocks[idx+1:], f.Blocks[idx:])
	f.Blocks[idx] = mid
	mid.Append(&ir.Instr{Op: ir.OpBr, Typ: ir.Void, Targets: []*ir.Block{to}})
	// Retarget every occurrence of the edge (a switch may carry several).
	for i, t := range term.Targets {
		if t == to {
			term.Targets[i] = mid
		}
	}
	// to's phis now receive the value from mid instead of from.
	for _, phi := range to.Phis() {
		for i, inc := range phi.Incoming {
			if inc == from {
				phi.Incoming[i] = mid
			}
		}
	}
	return mid, nil
}

// EdgeTool instruments every control-flow edge of the pristine program.
type EdgeTool struct {
	binding
	Probes []*EdgeProbe

	Prune bool
}

// NewEdgeTool installs a probe on every CFG edge and builds.
func NewEdgeTool(m *ir.Module, opts core.Options, prune bool) (*EdgeTool, error) {
	opts.ExtraBuiltins = append(opts.ExtraBuiltins, EdgeHook)
	eng, err := core.New(m, opts)
	if err != nil {
		return nil, err
	}
	t := &EdgeTool{binding: binding{Engine: eng}, Prune: prune}
	for _, f := range eng.Pristine.Funcs {
		for _, b := range f.Blocks {
			seen := map[*ir.Block]bool{}
			for _, s := range b.Succs() {
				if seen[s] {
					continue // switch with duplicate targets: one probe
				}
				seen[s] = true
				p := &EdgeProbe{ID: int64(len(t.Probes)), FuncName: f.Name, From: b, To: s}
				t.Probes = append(t.Probes, p)
				t.mgrIDs = append(t.mgrIDs, eng.Manager.Add(p))
			}
		}
	}
	if _, _, err := eng.BuildAll(); err != nil {
		return nil, err
	}
	t.bind(map[string]rt.Builtin{
		EdgeHook: countingHook(len(t.Probes), func(id int64) { t.Probes[id].Hits++ }),
	}, len(t.Probes))
	return t, nil
}

// CoveredEdges counts edges traversed at least once.
func (t *EdgeTool) CoveredEdges() int {
	n := 0
	for _, p := range t.Probes {
		if p.Hits > 0 {
			n++
		}
	}
	return n
}

// MaybePrune removes triggered edge probes via recompilation.
func (t *EdgeTool) MaybePrune() (int, error) {
	if !t.Prune {
		return 0, nil
	}
	pruned, _, err := t.prune(func(i int) bool { return t.Probes[i].Hits > 0 })
	return pruned, err
}
