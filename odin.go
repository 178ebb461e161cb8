// Package odin is an on-demand instrumentation framework with on-the-fly
// recompilation, a Go reproduction of "Odin: On-Demand Instrumentation with
// On-the-Fly Recompilation" (PLDI 2022).
//
// Odin works as an instrumentation library that cooperates with a fuzzer
// closely. Before fuzzing starts it partitions the whole-program IR into
// code fragments whose boundaries preserve every optimization; during
// fuzzing, when the instrumentation requirement changes, it locates the
// changed fragments, re-instruments, re-optimizes, and re-compiles just
// those fragments, relinking the machine-code cache into a fresh
// executable:
//
//	m, _ := irtext.Parse("target", source)
//	engine, _ := odin.New(m, odin.Options{})
//	probeID := engine.Manager.Add(myProbe)     // probes reference the pristine IR
//	exe, _, _ := engine.BuildAll()             // instrument -> optimize -> codegen -> link
//	mach := vm.New(exe)                        // one machine for the whole campaign
//	...                                         // fuzz with vm.RunProgram(mach, input)
//	engine.Manager.Remove(probeID)             // requirement changed
//	sched, _ := engine.Schedule()              // Algorithm 2: minimal fragment set
//	exe, stats, _ = sched.Rebuild()            // on-the-fly recompilation
//	mach.Rebind(exe)                           // same machine, new image
//
// The machine outlives the images it runs: Rebind keeps its memory, the
// hooks installed into mach.Env.Builtins and its hit vector, and restores
// only the data segment; between inputs RunProgram restores only the pages
// the last execution wrote. An execution costs what it executes, and a
// rebuild costs no new machine.
//
// The implementation spans several internal packages — ir (the SSA IR),
// irtext (its textual format), opt (the optimizer), codegen/obj/link (the
// back end), vm (the cycle-accurate execution engine), core (the framework
// itself), cov (the OdinCov/OdinCmp tools), sancov/dbi/binrw (the paper's
// baselines), fuzz (a coverage-guided fuzzer), progen (the 13-program
// evaluation suite), and bench (the experiment harness). This package
// re-exports the user-facing surface.
package odin

import (
	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/telemetry"
)

// Core framework types.
type (
	// Engine is the Odin framework instance for one program: pristine
	// IR, partition plan, probe manager, and machine-code cache.
	Engine = core.Engine
	// Options configures an Engine.
	Options = core.Options
	// Variant selects the partition scheme (Table 1).
	Variant = core.Variant
	// Plan is a program's fragment partition.
	Plan = core.Plan
	// Fragment is one recompilation unit.
	Fragment = core.Fragment
	// Probe is one unit of instrumentation targeting a function.
	Probe = core.Probe
	// Instrumenter is a self-applying probe.
	Instrumenter = core.Instrumenter
	// PatchManager tracks dynamic probe state.
	PatchManager = core.PatchManager
	// Sched is one recompilation in flight.
	Sched = core.Sched
	// RebuildStats describes one on-the-fly recompilation.
	RebuildStats = core.RebuildStats
	// RebuildError reports a failed rebuild, naming every fragment that
	// failed to compile; the fragment cache is untouched on failure.
	RebuildError = core.RebuildError
	// FragError is one fragment's compile failure inside a RebuildError,
	// attributed to a pipeline stage (and optimizer pass, when known), with
	// the stack captured when the failure was a recovered panic.
	FragError = core.FragError
	// TimeoutError reports that Options.RebuildTimeout expired; the cache
	// and current executable are untouched.
	TimeoutError = core.TimeoutError
	// Classification is the symbol survey (Bond / Copy-on-use / Fixed).
	Classification = core.Classification
	// EngineSnapshot is the introspection view of live engine state served
	// by the telemetry endpoint at /debug/odin.
	EngineSnapshot = core.EngineSnapshot
)

// Telemetry re-exports. Attach a telemetry.NewRegistry() via
// Options.Telemetry to collect rebuild metrics and span traces with zero
// overhead when unset, and telemetry.Serve to expose them over HTTP.
type (
	// TelemetryRegistry is the metric-and-trace registry engines report to.
	TelemetryRegistry = telemetry.Registry
	// TelemetryServer is the introspection HTTP endpoint.
	TelemetryServer = telemetry.Server
)

// NewTelemetry returns an empty registry for Options.Telemetry.
func NewTelemetry() *TelemetryRegistry { return telemetry.NewRegistry() }

// ServeTelemetry starts the introspection endpoint on addr (host:port; port
// 0 picks a free port) serving Prometheus text at /metrics, a JSON snapshot
// of status() plus metrics and recent rebuild traces at /debug/odin, and
// net/http/pprof under /debug/pprof/.
func ServeTelemetry(addr string, reg *TelemetryRegistry, status func() any) (*TelemetryServer, error) {
	return telemetry.Serve(addr, reg, status)
}

// Partition variants.
const (
	VariantOdin = core.VariantOdin
	VariantOne  = core.VariantOne
	VariantMax  = core.VariantMax
)

// New surveys and partitions a program, returning an engine with a cold
// machine-code cache.
func New(m *ir.Module, opts Options) (*Engine, error) { return core.New(m, opts) }

// Partition runs the survey and Algorithm 1 without creating an engine.
func Partition(m *ir.Module, v Variant, optLevel int) (*Plan, error) {
	return core.Partition(m, v, optLevel)
}
