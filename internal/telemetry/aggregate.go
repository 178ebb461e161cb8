package telemetry

import (
	"io"
	"sort"
	"sync"
)

// Aggregate merges several registries — typically one per engine shard —
// into a single fleet-wide export surface. Every sample from an attached
// registry is re-labeled with the aggregate's label key (e.g. shard="a"), so
// one /metrics scrape covers the whole fleet without the shards sharing any
// registration state or lock. Attaching is cheap and happens at setup;
// export walks the attached registries live, so per-shard updates need no
// extra plumbing.
type Aggregate struct {
	labelKey string

	mu    sync.Mutex
	names []string // attach order, for deterministic export
	regs  map[string]*Registry
}

// NewAggregate returns an empty aggregate that tags every exported sample
// with labelKey (e.g. "shard").
func NewAggregate(labelKey string) *Aggregate {
	return &Aggregate{labelKey: labelKey, regs: map[string]*Registry{}}
}

// Attach adds (or replaces) a named member registry. A nil registry is
// ignored, keeping the telemetry-off path free of special cases.
func (a *Aggregate) Attach(name string, r *Registry) {
	if a == nil || r == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.regs[name]; !ok {
		a.names = append(a.names, name)
	}
	a.regs[name] = r
}

// Registry returns the member registry attached under name, or nil.
func (a *Aggregate) Registry(name string) *Registry {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.regs[name]
}

// members snapshots the attached registries in attach order.
func (a *Aggregate) members() (names []string, regs []*Registry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, n := range a.names {
		names = append(names, n)
		regs = append(regs, a.regs[n])
	}
	return names, regs
}

// aggEntry is one member registry's metric with the member label merged in.
type aggEntry struct {
	promSample
	owner string
}

// WritePrometheus writes every attached registry's metrics in the Prometheus
// text exposition format with the aggregate label injected, families grouped
// across members and deterministically ordered; a family's HELP comes from
// the first member that has it. Nil aggregate writes nothing.
func (a *Aggregate) WritePrometheus(w io.Writer) error {
	if a == nil {
		return nil
	}
	names, regs := a.members()
	var all []aggEntry
	for i, r := range regs {
		for _, e := range r.sortedEntries() {
			merged := make([]string, 0, len(e.labels)+2)
			merged = append(merged, e.labels...)
			merged = append(merged, a.labelKey, names[i])
			all = append(all, aggEntry{promSample{e: e, ls: renderLabels(sortLabels(merged))}, names[i]})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].e.name != all[j].e.name {
			return all[i].e.name < all[j].e.name
		}
		return all[i].owner < all[j].owner
	})
	samples := make([]promSample, len(all))
	for i := range all {
		samples[i] = all[i].promSample
	}
	return writePrometheus(w, samples, func(name string) string {
		for _, r := range regs {
			if help := r.helpFor(name); help != "" {
				return help
			}
		}
		return ""
	})
}

// Snapshot returns every member's metric snapshot keyed by member name.
func (a *Aggregate) Snapshot() map[string][]SnapshotMetric {
	if a == nil {
		return nil
	}
	names, regs := a.members()
	out := make(map[string][]SnapshotMetric, len(names))
	for i, r := range regs {
		out[names[i]] = r.Snapshot()
	}
	return out
}
