package cov

import (
	"fmt"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/rt"
)

// CmpProbe records the operands used in one comparison (the CmpLog scheme
// of §2.1, implemented per the §4 example). Because Odin instruments before
// optimization, the recorded operands are the program's original values —
// the property the input-to-state correspondence algorithm requires and
// post-optimization instrumentation destroys (§2.2).
type CmpProbe struct {
	ID       int64
	FuncName string
	// Cmp points at the comparison in the pristine IR.
	Cmp *ir.Instr
	// Observed holds (lhs, rhs) pairs annotated from profiling.
	Observed [][2]int64
	// Solved marks comparisons the fuzzer no longer needs; the tool
	// prunes them like AFL++ retires solved roadblocks.
	Solved bool
}

// PatchTarget implements core.Probe.
func (p *CmpProbe) PatchTarget() string { return p.FuncName }

// Instrument implements core.Instrumenter: a call to the comparison hook is
// inserted immediately before the cloned comparison, forwarding both
// operands widened to 64 bits.
func (p *CmpProbe) Instrument(s *core.Sched) error {
	mapped := s.Map(p.Cmp)
	tc, ok := mapped.(*ir.Instr)
	if !ok || tc == p.Cmp || tc.Parent == nil {
		return fmt.Errorf("cov: comparison of @%s not in recompilation", p.FuncName)
	}
	blk := tc.Parent
	idx := -1
	for i, in := range blk.Instrs {
		if in == tc {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("cov: mapped comparison not found in block")
	}
	hook := s.LookupFunction(CmpHook, &ir.FuncType{Params: []ir.Type{ir.I64, ir.I64, ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(blk, idx)
	widen := func(v ir.Value) ir.Value {
		st, ok := v.Type().(ir.ScalarType)
		if !ok || st == ir.I64 || st == ir.Ptr {
			return v
		}
		return b.SExt(v, ir.I64)
	}
	a := widen(tc.Operands[0])
	c := widen(tc.Operands[1])
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, p.ID), a, c)
	return nil
}

// CmpTool instruments every comparison against a constant (fuzzing
// roadblocks) in the program with CmpProbes.
type CmpTool struct {
	binding
	Probes []*CmpProbe
}

// NewCmpTool installs a probe on every comparison whose right operand is a
// constant (the magic-value roadblocks input-to-state solving targets).
func NewCmpTool(m *ir.Module, opts core.Options) (*CmpTool, error) {
	opts.ExtraBuiltins = append(opts.ExtraBuiltins, CmpHook)
	eng, err := core.New(m, opts)
	if err != nil {
		return nil, err
	}
	t := &CmpTool{binding: binding{Engine: eng}}
	for _, f := range eng.Pristine.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpICmp {
					continue
				}
				if _, isConst := ir.IsConstValue(in.Operands[1]); !isConst {
					continue
				}
				p := &CmpProbe{ID: int64(len(t.Probes)), FuncName: f.Name, Cmp: in}
				t.Probes = append(t.Probes, p)
				t.mgrIDs = append(t.mgrIDs, eng.Manager.Add(p))
			}
		}
	}
	if _, _, err := eng.BuildAll(); err != nil {
		return nil, err
	}
	t.bind(map[string]rt.Builtin{CmpHook: func(env *rt.Env, args []int64) (int64, error) {
		id := args[0]
		if id >= 0 && id < int64(len(t.Probes)) {
			p := t.Probes[id]
			if len(p.Observed) < 1024 {
				p.Observed = append(p.Observed, [2]int64{args[1], args[2]})
			}
		}
		return 0, nil
	}}, 0)
	return t, nil
}

// PruneSolved removes probes the fuzzer marked Solved and recompiles.
func (t *CmpTool) PruneSolved() (int, error) {
	pruned, _, err := t.prune(func(i int) bool { return t.Probes[i].Solved })
	return pruned, err
}
