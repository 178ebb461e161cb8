package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Probe is one unit of instrumentation following the OOP paradigm of §4:
// each instance targets one patch site. Probe implementations freely carry
// probe-specific information (the instruction to instrument, dynamic
// profiling annotations, pointers into the program IR).
type Probe interface {
	// PatchTarget returns the symbol name of the function the framework
	// must recompile to apply or remove this probe.
	PatchTarget() string
}

// Instrumenter is a probe that knows how to apply itself to the temporary
// IR during a recompilation. Probes implementing only Probe can instead be
// applied by user patch logic iterating Sched.ActiveProbes.
type Instrumenter interface {
	Probe
	// Instrument patches the temporary IR through the scheduler's value
	// mapping.
	Instrument(s *Sched) error
}

type probeEntry struct {
	id     int
	probe  Probe
	active bool
	// ever records whether the probe was ever activated; discard refuses
	// to delete such entries so a removed (inactive) probe can always be
	// re-enabled by ID.
	ever bool
}

// PatchManager tracks dynamic adding, removing, and changing of probes (§4).
// All methods are goroutine-safe: probe requests arrive on demand at runtime
// (§3), so the manager may be mutated from many goroutines — directly by
// library users, or through the Supervisor's admission queue. Rebuilds
// themselves must still be externally serialized (the Supervisor's single
// rebuild loop does exactly that).
type PatchManager struct {
	mu     sync.Mutex
	probes map[int]*probeEntry
	// active holds the IDs of the active probes, sorted, so that Active and
	// NumActive cost what is live and not every probe ever added.
	active []int
	nextID int
	// dirtySymbols maps each patch target whose instrumentation state
	// changed since the last rebuild to the epoch at which it was last
	// marked. Epochs let a completed rebuild clear exactly the marks it
	// consumed: a symbol re-marked while the rebuild was in flight keeps
	// its (newer) mark and stays scheduled for the next rebuild.
	dirtySymbols map[string]uint64
	epoch        uint64
}

// NewPatchManager returns an empty manager.
func NewPatchManager() *PatchManager {
	return &PatchManager{
		probes:       map[int]*probeEntry{},
		dirtySymbols: map[string]uint64{},
	}
}

// mark records a dirty symbol at a fresh epoch. Callers hold pm.mu.
func (pm *PatchManager) mark(sym string) {
	pm.epoch++
	pm.dirtySymbols[sym] = pm.epoch
}

// Add registers a probe and returns its ID. The probe starts active.
func (pm *PatchManager) Add(p Probe) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	id := pm.nextID
	pm.nextID++
	pm.probes[id] = &probeEntry{id: id, probe: p, active: true, ever: true}
	pm.active = append(pm.active, id) // the largest ID yet: still sorted
	pm.mark(p.PatchTarget())
	return id
}

// AddInactive registers a probe without activating it and without marking
// its target dirty, returning its ID. SetActive(id, true) later schedules
// the target for recompilation. The Supervisor uses this to hand callers a
// probe ID at admission time while deferring the instrumentation change to
// its rebuild loop.
func (pm *PatchManager) AddInactive(p Probe) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	id := pm.nextID
	pm.nextID++
	pm.probes[id] = &probeEntry{id: id, probe: p, active: false}
	return id
}

// discard forgets a never-activated probe registered with AddInactive whose
// admission was rejected (queue full, breaker open). It is a no-op for any
// probe that was ever active, so it can never drop live or re-enableable
// instrumentation, and never changes the active set.
func (pm *PatchManager) discard(id int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if e, ok := pm.probes[id]; ok && !e.ever {
		delete(pm.probes, id)
	}
}

// Remove deactivates the probe; the overhead disappears at the next rebuild.
func (pm *PatchManager) Remove(id int) error {
	return pm.SetActive(id, false)
}

// SetActive sets the probe's activation state, marking its target dirty when
// the state actually changes. It is the reversible primitive behind Remove
// and behind the Supervisor's apply/roll-back of batched probe requests
// during poison bisection.
func (pm *PatchManager) SetActive(id int, active bool) error {
	_, err := pm.setActive(id, active)
	return err
}

// setActive is SetActive reporting whether the state actually flipped. The
// Supervisor needs the distinction: rolling back a generation must invert
// only the requests that changed state — inverting a redundant no-op request
// (enable of an already-active probe) would corrupt committed state.
func (pm *PatchManager) setActive(id int, active bool) (bool, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	e, ok := pm.probes[id]
	if !ok {
		return false, fmt.Errorf("core: no probe %d", id)
	}
	if e.active == active {
		return false, nil
	}
	e.active = active
	i, _ := slices.BinarySearch(pm.active, id)
	if active {
		e.ever = true
		pm.active = slices.Insert(pm.active, i, id)
	} else {
		pm.active = slices.Delete(pm.active, i, i+1)
	}
	pm.mark(e.probe.PatchTarget())
	return true, nil
}

// Get returns the probe with the given ID.
func (pm *PatchManager) Get(id int) (Probe, bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	e, ok := pm.probes[id]
	if !ok {
		return nil, false
	}
	return e.probe, true
}

// MarkChanged records that the probe's logic changed (e.g. its annotation
// now requires different instrumentation), scheduling its target for
// recompilation.
func (pm *PatchManager) MarkChanged(id int) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	e, ok := pm.probes[id]
	if !ok {
		return fmt.Errorf("core: no probe %d", id)
	}
	pm.mark(e.probe.PatchTarget())
	return nil
}

// IsActive reports whether the probe with the given ID is active.
func (pm *PatchManager) IsActive(id int) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	e, ok := pm.probes[id]
	return ok && e.active
}

// Active returns the IDs of all active probes, sorted.
func (pm *PatchManager) Active() []int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return append([]int(nil), pm.active...)
}

// NumActive returns the count of active probes.
func (pm *PatchManager) NumActive() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return len(pm.active)
}

// dirtySnapshot returns the changed symbol set, sorted, plus the epoch the
// snapshot was taken at. A rebuild built from this snapshot passes the epoch
// to clearDirtyThrough on success so concurrent marks are never lost.
func (pm *PatchManager) dirtySnapshot() ([]string, uint64) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make([]string, 0, len(pm.dirtySymbols))
	for s := range pm.dirtySymbols {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, pm.epoch
}

// clearDirtyThrough drops every dirty mark made at or before epoch. Symbols
// marked again after the snapshot keep their newer mark and stay scheduled.
func (pm *PatchManager) clearDirtyThrough(epoch uint64) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	for s, at := range pm.dirtySymbols {
		if at <= epoch {
			delete(pm.dirtySymbols, s)
		}
	}
}
