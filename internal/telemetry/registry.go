// Package telemetry is Odin's observability subsystem: a metrics registry
// of atomic counters, gauges, and fixed-bucket duration histograms; a
// rebuild tracer that records per-rebuild span trees; and an opt-in HTTP
// introspection server exposing Prometheus text exposition, a JSON engine
// snapshot, and pprof.
//
// The whole package follows one contract: every handle type is safe to use
// with a nil receiver, and a nil receiver does nothing. Instrumented code
// therefore never branches on "is telemetry enabled" — it obtains handles
// once (a nil *Registry yields nil handles) and calls them unconditionally;
// with telemetry disabled each call is a single nil check, no allocation,
// no atomics. The increment path of a live Counter, Gauge, Histogram, or
// HitVec is likewise allocation-free: one or a few atomic operations on
// memory allocated at registration time.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is usable;
// a nil Counter discards increments.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil Gauge discards updates.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefDurationBuckets are the default histogram bounds, spanning the
// microsecond-to-seconds range the rebuild pipeline operates in.
var DefDurationBuckets = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
	5 * time.Second,
}

// Histogram is a fixed-bucket duration histogram. Observations are three
// atomic adds; bounds are immutable after registration. A nil Histogram
// discards observations.
type Histogram struct {
	bounds  []time.Duration
	buckets []atomic.Uint64 // len(bounds)+1; the last bucket is +Inf
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefDurationBuckets
	}
	return &Histogram{
		bounds:  append([]time.Duration(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// HitVec counts events per small-integer site ID — one atomic add per hit,
// no locks, no allocation. The vector size is fixed at registration (the
// tool knows its probe count); out-of-range IDs land in an overflow cell.
// A nil HitVec discards hits.
type HitVec struct {
	hits     []atomic.Uint64
	overflow atomic.Uint64
}

// Hit counts one event at site id.
func (v *HitVec) Hit(id int64) {
	if v == nil {
		return
	}
	if id >= 0 && id < int64(len(v.hits)) {
		v.hits[id].Add(1)
		return
	}
	v.overflow.Add(1)
}

// Len returns the number of addressable sites.
func (v *HitVec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.hits)
}

// Value returns the count at site id (0 when out of range or nil).
func (v *HitVec) Value(id int64) uint64 {
	if v == nil || id < 0 || id >= int64(len(v.hits)) {
		return 0
	}
	return v.hits[id].Load()
}

// Total returns the sum over every site plus overflow.
func (v *HitVec) Total() uint64 {
	if v == nil {
		return 0
	}
	n := v.overflow.Load()
	for i := range v.hits {
		n += v.hits[i].Load()
	}
	return n
}

// Active returns how many sites have at least one hit.
func (v *HitVec) Active() int {
	if v == nil {
		return 0
	}
	n := 0
	for i := range v.hits {
		if v.hits[i].Load() > 0 {
			n++
		}
	}
	return n
}

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindGaugeFunc = "gaugefunc"
	kindHistogram = "histogram"
	kindHitVec    = "hitvec"
)

// entry is one registered metric instance (a family member).
type entry struct {
	name   string
	kind   string
	labels []string // alternating key, value; sorted by key at registration
	key    string   // name + rendered labels

	c  *Counter
	g  *Gauge
	gf func() int64
	h  *Histogram
	hv *HitVec
}

// labelString renders {k="v",...} or "".
func (e *entry) labelString() string { return renderLabels(e.labels) }

// renderLabels renders alternating key/value pairs as {k="v",...} or "".
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", labels[i], labels[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Registry is a concurrency-safe collection of named metric families plus
// the rebuild tracer. Registration (Counter, Gauge, ...) is get-or-create
// and is intended to run once at setup; instrumented code keeps the
// returned handles and updates them lock-free. All methods are nil-safe:
// a nil *Registry returns nil handles, and nil handles discard updates,
// so a disabled pipeline pays only nil checks.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*entry
	help    map[string]string

	// Traces is the rebuild tracer attached to this registry. The engine
	// reaches it through Tracer(), which is nil-safe.
	Traces *Tracer
}

// NewRegistry returns an empty registry whose tracer keeps the last
// DefTraceCapacity rebuild traces.
func NewRegistry() *Registry {
	return &Registry{
		metrics: map[string]*entry{},
		help:    map[string]string{},
		Traces:  NewTracer(DefTraceCapacity),
	}
}

// Tracer returns the registry's rebuild tracer, or nil for a nil registry.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.Traces
}

// Describe attaches Prometheus HELP text to a metric family name.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// lookup finds or creates the entry for (name, labels), enforcing kind
// consistency. labels must alternate key, value.
func (r *Registry) lookup(name, kind string, labels []string) *entry {
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs: " + name)
	}
	labels = sortLabels(labels)
	key := name
	for i := 0; i+1 < len(labels); i += 2 {
		key += "\x00" + labels[i] + "\x00" + labels[i+1]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, kind: kind, labels: labels, key: key}
	r.metrics[key] = e
	return e
}

// sortLabels orders key/value pairs by key for a canonical identity.
func sortLabels(labels []string) []string {
	if len(labels) <= 2 {
		return labels
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	out := make([]string, 0, len(labels))
	for _, p := range kvs {
		out = append(out, p.k, p.v)
	}
	return out
}

// Counter returns the counter for name with the given label key/value
// pairs, creating it on first use. Nil registry returns nil.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindCounter, labels)
	if e.c == nil {
		e.c = &Counter{}
	}
	return e.c
}

// Gauge returns the gauge for name with the given label key/value pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindGauge, labels)
	if e.g == nil {
		e.g = &Gauge{}
	}
	return e.g
}

// GaugeFunc registers a gauge whose value is computed by fn at export time
// (for mirroring externally owned counters, e.g. the fault injector's).
// Re-registering the same name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	e := r.lookup(name, kindGaugeFunc, labels)
	e.gf = fn
}

// Histogram returns the duration histogram for name, creating it with the
// given bucket bounds (nil bounds = DefDurationBuckets) on first use.
func (r *Registry) Histogram(name string, bounds []time.Duration, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	e := r.lookup(name, kindHistogram, labels)
	if e.h == nil {
		e.h = newHistogram(bounds)
	}
	return e.h
}

// HitVec returns the per-site hit vector for name, creating it with the
// given site count on first use; later calls reuse the existing vector
// regardless of size (rebinds after a rebuild keep their counts).
func (r *Registry) HitVec(name string, size int, labels ...string) *HitVec {
	if r == nil {
		return nil
	}
	if size < 0 {
		size = 0
	}
	e := r.lookup(name, kindHitVec, labels)
	if e.hv == nil {
		e.hv = &HitVec{hits: make([]atomic.Uint64, size)}
	}
	return e.hv
}

// sortedEntries snapshots the registered entries sorted by family name then
// rendered labels, for deterministic export.
func (r *Registry) sortedEntries() []*entry {
	r.mu.Lock()
	out := make([]*entry, 0, len(r.metrics))
	for _, e := range r.metrics {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].key < out[j].key
	})
	return out
}

// helpFor returns the HELP text for a family, or "".
func (r *Registry) helpFor(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[name]
}

// seconds renders a duration as a Prometheus seconds value.
func seconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered. Histograms
// emit cumulative le buckets in seconds plus _sum and _count; a HitVec
// emits one sample, the total across its sites.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	entries := r.sortedEntries()
	samples := make([]promSample, len(entries))
	for i, e := range entries {
		samples[i] = promSample{e: e, ls: e.labelString()}
	}
	return writePrometheus(w, samples, r.helpFor)
}

// promSample is one exported metric instance with its rendered label set.
type promSample struct {
	e  *entry
	ls string
}

// writePrometheus writes samples, grouped by family, in the text exposition
// format: the family's HELP line (when help has text for it) and TYPE line
// before its first sample. Registry and Aggregate both export through it.
func writePrometheus(w io.Writer, samples []promSample, help func(name string) string) error {
	lastFamily := ""
	for _, s := range samples {
		e := s.e
		if e.name != lastFamily {
			lastFamily = e.name
			if h := help(e.name); h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, h); err != nil {
					return err
				}
			}
			typ := e.kind
			switch e.kind {
			case kindGaugeFunc:
				typ = "gauge"
			case kindHitVec:
				typ = "counter"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, typ); err != nil {
				return err
			}
		}
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", e.name, s.ls, e.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %d\n", e.name, s.ls, e.g.Value())
		case kindGaugeFunc:
			var v int64
			if e.gf != nil {
				v = e.gf()
			}
			_, err = fmt.Fprintf(w, "%s%s %d\n", e.name, s.ls, v)
		case kindHitVec:
			_, err = fmt.Fprintf(w, "%s%s %d\n", e.name, s.ls, e.hv.Total())
		case kindHistogram:
			err = writePromHistogram(w, e.name, e.h, s.ls)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits one histogram family member.
func writePromHistogram(w io.Writer, name string, h *Histogram, ls string) error {
	cum := uint64(0)
	inner := strings.TrimSuffix(strings.TrimPrefix(ls, "{"), "}")
	bucketLabels := func(le string) string {
		if inner == "" {
			return `{le="` + le + `"}`
		}
		return "{" + inner + `,le="` + le + `"}`
	}
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(seconds(b)), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, ls, seconds(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, ls, h.Count())
	return err
}

// SnapshotMetric is one metric instance in a JSON snapshot.
type SnapshotMetric struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value carries counter counts, gauge values, and hit-vector totals.
	Value int64 `json:"value,omitempty"`
	// Histogram-only fields.
	Count   uint64   `json:"count,omitempty"`
	SumSecs float64  `json:"sum_seconds,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	// HitVec-only fields: per-site counts for active sites (sparse).
	Sites map[string]uint64 `json:"sites,omitempty"`
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	LESecs float64 `json:"le_seconds"`
	Count  uint64  `json:"count"`
}

// Snapshot returns every registered metric's current value, sorted by name
// then labels, for the JSON introspection endpoint.
func (r *Registry) Snapshot() []SnapshotMetric {
	if r == nil {
		return nil
	}
	entries := r.sortedEntries()
	out := make([]SnapshotMetric, 0, len(entries))
	for _, e := range entries {
		m := SnapshotMetric{Name: e.name, Kind: e.kind}
		if len(e.labels) > 0 {
			m.Labels = map[string]string{}
			for i := 0; i+1 < len(e.labels); i += 2 {
				m.Labels[e.labels[i]] = e.labels[i+1]
			}
		}
		switch e.kind {
		case kindCounter:
			m.Value = int64(e.c.Value())
		case kindGauge:
			m.Value = e.g.Value()
		case kindGaugeFunc:
			if e.gf != nil {
				m.Value = e.gf()
			}
		case kindHitVec:
			m.Value = int64(e.hv.Total())
			for i := range e.hv.hits {
				if n := e.hv.hits[i].Load(); n > 0 {
					if m.Sites == nil {
						m.Sites = map[string]uint64{}
					}
					m.Sites[strconv.Itoa(i)] = n
				}
			}
			if n := e.hv.overflow.Load(); n > 0 {
				if m.Sites == nil {
					m.Sites = map[string]uint64{}
				}
				m.Sites["overflow"] = n
			}
		case kindHistogram:
			m.Count = e.h.Count()
			m.SumSecs = e.h.Sum().Seconds()
			cum := uint64(0)
			for i, b := range e.h.bounds {
				cum += e.h.buckets[i].Load()
				m.Buckets = append(m.Buckets, Bucket{LESecs: b.Seconds(), Count: cum})
			}
		}
		out = append(out, m)
	}
	return out
}
