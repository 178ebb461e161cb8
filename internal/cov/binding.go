package cov

import (
	"odin/internal/core"
	"odin/internal/rt"
	"odin/internal/vm"
)

// binding is what the four tools share: the engine and one vm.Machine on
// its current image. The machine is created once, on the first image, and
// rebound in place after every rebuild, so its Env (8 MiB), the hooks
// installed into it and its hit vector outlive the images it runs.
type binding struct {
	Engine *core.Engine
	mach   *vm.Machine
	// mgrIDs[i] is the PatchManager ID of the tool's i-th probe.
	mgrIDs []int
}

// bind creates the machine on the engine's current image and installs the
// tool's hooks. With hitSites > 0 and telemetry on, per-site hits are
// mirrored onto the registry's hit vector.
func (b *binding) bind(hooks map[string]rt.Builtin, hitSites int) {
	b.mach = vm.New(b.Engine.Executable())
	for name, hook := range hooks {
		b.mach.Env.Builtins[name] = hook
	}
	if reg := b.Engine.Telemetry(); reg != nil && hitSites > 0 {
		reg.Describe(core.MetricProbeHits, "Probe-site firings observed by the execution engine.")
		b.mach.Env.Hits = reg.HitVec(core.MetricProbeHits, hitSites)
	}
}

// Machine exposes the execution engine; it is the same machine before and
// after a rebuild.
func (b *binding) Machine() *vm.Machine { return b.mach }

// Rebind moves the machine to the engine's current image. The tools do it
// after their own rebuilds; call it after rebuilds performed outside them —
// for example a batch of supervisor generations.
func (b *binding) Rebind() { b.mach.Rebind(b.Engine.Executable()) }

// RunInput executes one input on the instrumented program.
func (b *binding) RunInput(input []byte) Result {
	ret, out, cycles, err := vm.RunProgram(b.mach, input)
	return Result{Ret: ret, Out: out, Cycles: cycles, Err: err}
}

// countingHook is the builtin block and edge probes call with their site
// ID: hit records the firing on the tool's probe, the Env on the hit vector.
func countingHook(sites int, hit func(id int64)) rt.Builtin {
	return func(env *rt.Env, args []int64) (int64, error) {
		if id := args[0]; id >= 0 && id < int64(sites) {
			hit(id)
			env.CountHit(id)
		}
		return 0, nil
	}
}

// prune removes every still-active probe i for which retire(i) holds,
// recompiles the affected fragments and rebinds the machine. It returns how
// many probes went; with none, the build is left alone and the stats are
// nil.
func (b *binding) prune(retire func(i int) bool) (int, *core.RebuildStats, error) {
	pruned := 0
	for i, id := range b.mgrIDs {
		if retire(i) && b.Engine.Manager.IsActive(id) {
			if err := b.Engine.Manager.Remove(id); err != nil {
				return pruned, nil, err
			}
			pruned++
		}
	}
	if pruned == 0 {
		return 0, nil, nil
	}
	sched, err := b.Engine.Schedule()
	if err != nil {
		return pruned, nil, err
	}
	_, stats, err := sched.Rebuild()
	if err != nil {
		return pruned, nil, err
	}
	b.Rebind()
	return pruned, stats, nil
}
