package cov

import (
	"fmt"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/rt"
)

// Function-tracing hooks (the XRay-style scheme from §6.3's related work:
// XRay reserves nop sleds at function entries/exits; Odin simply compiles
// the calls in and out on demand).
const (
	EnterHook = "__odin_fn_enter"
	ExitHook  = "__odin_fn_exit"
)

// FuncProbe traces one function: a hook call on entry and one before every
// return.
type FuncProbe struct {
	ID       int64
	FuncName string
	// Calls counts entries; annotated from profiling.
	Calls uint64
}

// PatchTarget implements core.Probe.
func (p *FuncProbe) PatchTarget() string { return p.FuncName }

// Instrument implements core.Instrumenter.
func (p *FuncProbe) Instrument(s *core.Sched) error {
	f := s.MapFunc(p.FuncName)
	if f == nil {
		return fmt.Errorf("cov: function @%s not in recompilation", p.FuncName)
	}
	enter := s.LookupFunction(EnterHook, &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	exit := s.LookupFunction(ExitHook, &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	entry := f.Entry()
	b.SetInsertBefore(entry, len(entry.Phis()))
	b.Call(ir.Void, enter.Name, ir.Const(ir.I64, p.ID))
	for _, blk := range f.Blocks {
		t := blk.Term()
		if t == nil || t.Op != ir.OpRet {
			continue
		}
		b.SetInsertBefore(blk, len(blk.Instrs)-1)
		b.Call(ir.Void, exit.Name, ir.Const(ir.I64, p.ID))
	}
	return nil
}

// TraceEvent is one entry/exit record.
type TraceEvent struct {
	ProbeID int64
	Enter   bool
}

// TraceTool traces every defined function, producing a call-sequence log.
type TraceTool struct {
	binding
	Probes []*FuncProbe
	// Events is the trace of the most recent RunInput.
	Events []TraceEvent
}

// NewTraceTool instruments every defined function and builds.
func NewTraceTool(m *ir.Module, opts core.Options) (*TraceTool, error) {
	opts.ExtraBuiltins = append(opts.ExtraBuiltins, EnterHook, ExitHook)
	eng, err := core.New(m, opts)
	if err != nil {
		return nil, err
	}
	t := &TraceTool{binding: binding{Engine: eng}}
	for _, f := range eng.Pristine.Funcs {
		if f.IsDecl() {
			continue
		}
		p := &FuncProbe{ID: int64(len(t.Probes)), FuncName: f.Name}
		t.Probes = append(t.Probes, p)
		t.mgrIDs = append(t.mgrIDs, eng.Manager.Add(p))
	}
	if _, _, err := eng.BuildAll(); err != nil {
		return nil, err
	}
	record := func(enter bool) rt.Builtin {
		return func(env *rt.Env, args []int64) (int64, error) {
			id := args[0]
			if id >= 0 && id < int64(len(t.Probes)) {
				if enter {
					t.Probes[id].Calls++
				}
				if len(t.Events) < 1<<20 {
					t.Events = append(t.Events, TraceEvent{ProbeID: id, Enter: enter})
				}
			}
			return 0, nil
		}
	}
	t.bind(map[string]rt.Builtin{EnterHook: record(true), ExitHook: record(false)}, 0)
	return t, nil
}

// RunInput executes one input, replacing the event log.
func (t *TraceTool) RunInput(input []byte) Result {
	t.Events = nil
	return t.binding.RunInput(input)
}

// Retire removes tracing from functions the user no longer cares about
// (e.g. hot functions drowning the log) and recompiles.
func (t *TraceTool) Retire(funcNames ...string) (int, error) {
	want := map[string]bool{}
	for _, n := range funcNames {
		want[n] = true
	}
	retired, _, err := t.prune(func(i int) bool { return want[t.Probes[i].FuncName] })
	return retired, err
}
