// Package serve is the probe-control plane: a daemon-side library that
// hosts many programs across independent engine shards (one core.Engine +
// core.Supervisor per shard, each with its own persistent cache and
// snapshot), routes probe traffic to the owning shard over a versioned
// JSON-over-HTTP API, and layers fleet admission control — per-tenant token
// buckets, per-tenant failure breakers, and a global in-flight cap — on top
// of the per-engine admission queues so one hostile tenant cannot starve
// the rest of the fleet.
package serve

import (
	"fmt"

	"odin/internal/core"
	"odin/internal/ir"
)

// HitBuiltin is the runtime hook counter probes call; every shard engine
// registers it as an extra builtin so instrumenters can bind against it.
const HitBuiltin = "__serve_hit"

// Probe kinds accepted by the API.
const (
	KindCounter = "counter"
	KindPoison  = "poison"
)

// ProbeSpec is the wire form of a probe request: which function to patch
// and what instrumentation to apply. Kind defaults to "counter"; "poison"
// installs an instrumenter that always fails, exercising the supervisor's
// bisection/quarantine path (used by the hostile tenant of
// TestTenantIsolation).
type ProbeSpec struct {
	Func string `json:"func"`
	Kind string `json:"kind,omitempty"`
}

// Validate normalizes the spec and rejects malformed ones.
func (ps *ProbeSpec) Validate() error {
	if ps.Func == "" {
		return fmt.Errorf("serve: probe spec needs a func")
	}
	switch ps.Kind {
	case "":
		ps.Kind = KindCounter
	case KindCounter, KindPoison:
	default:
		return fmt.Errorf("serve: unknown probe kind %q", ps.Kind)
	}
	return nil
}

// counterProbe instruments its target's entry block with a HitBuiltin call
// — the serve-side analogue of the bench storm probe. The call carries the
// constant 1, not a per-probe ID: nothing reads it, and a constant keeps a
// counter on one function the same compiled bytes whichever probe asked for
// it, so a re-add, another tenant's add or a replay hits the fragment cache.
type counterProbe struct{ fnName string }

func (p *counterProbe) PatchTarget() string { return p.fnName }

func (p *counterProbe) Instrument(s *core.Sched) error {
	f := s.MapFunc(p.fnName)
	if f == nil {
		return fmt.Errorf("serve: %s not in recompilation", p.fnName)
	}
	nb := f.Blocks[0]
	hook := s.LookupFunction(HitBuiltin, &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(nb, len(nb.Phis()))
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, 1))
	return nil
}

// poisonProbe always fails at the instrument stage. Instrument errors abort
// a generation before any compilation happens, which makes poison probes
// cheap for the supervisor to reject and perfect fodder for its bisection:
// co-batched healthy requests are salvaged, the poison probe is
// quarantined.
type poisonProbe struct {
	fnName string
}

func (p *poisonProbe) PatchTarget() string { return p.fnName }

func (p *poisonProbe) Instrument(s *core.Sched) error {
	return fmt.Errorf("serve: poison probe on %s", p.fnName)
}

// buildProbe turns a validated spec into a core.Probe instance.
func buildProbe(spec ProbeSpec) core.Probe {
	if spec.Kind == KindPoison {
		return &poisonProbe{fnName: spec.Func}
	}
	return &counterProbe{fnName: spec.Func}
}
