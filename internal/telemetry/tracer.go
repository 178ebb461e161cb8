package telemetry

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefTraceCapacity is how many rebuild traces a registry's tracer keeps.
const DefTraceCapacity = 8

// Attr is one key/value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one timed node in a rebuild trace: the rebuild itself, one
// fragment, one pipeline stage, or one optimizer pass. Spans form a tree;
// children may be created from concurrent compile workers (Child locks the
// parent). All methods are nil-safe so instrumented code runs unchanged
// with tracing disabled.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	errMsg   string
	attrs    []Attr
	children []*Span
}

// newSpan starts a span now.
func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a new child span under s. Returns nil when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// StaticChild attaches an already-completed child span with an explicit
// start and duration — how the per-pass observations reported by the
// optimizer after the fact become spans.
func (s *Span) StaticChild(name string, start time.Time, dur time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: start, dur: dur, ended: true}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SpanObs is one already-completed observation for StaticChildren — the
// allocation-lean batch form of StaticChild. Attrs is aliased, not copied,
// so callers may share a read-only backing slice across observations.
type SpanObs struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	Attrs []Attr
}

// StaticChildren attaches a batch of completed child spans using a single
// backing array, costing two allocations regardless of batch size. The
// compile pool uses it to attach all of a fragment's per-pass spans at once
// so per-pass tracing stays cheap on the hot rebuild path.
func (s *Span) StaticChildren(obs []SpanObs) {
	if s == nil || len(obs) == 0 {
		return
	}
	backing := make([]Span, len(obs))
	ptrs := make([]*Span, len(obs))
	for i, o := range obs {
		backing[i] = Span{name: o.Name, start: o.Start, dur: o.Dur, ended: true, attrs: o.Attrs}
		ptrs[i] = &backing[i]
	}
	s.mu.Lock()
	s.children = append(s.children, ptrs...)
	s.mu.Unlock()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{K: k, V: v})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(k string, v int64) {
	s.SetAttr(k, strconv.FormatInt(v, 10))
}

// End closes the span, fixing its duration. Repeated End calls keep the
// first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// EndErr closes the span and records the error (nil err is a plain End).
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	if err != nil && s.errMsg == "" {
		s.errMsg = err.Error()
	}
	s.mu.Unlock()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Dur returns the span duration (0 until ended).
func (s *Span) Dur() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Err returns the recorded error message, or "".
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errMsg
}

// Attr returns the value of the named attribute, or "".
func (s *Span) Attr(k string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// Children returns a snapshot of the span's children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Find returns the first child (depth-first) with the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	for _, c := range s.Children() {
		if c.Name() == name {
			return c
		}
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// spanJSON is the exported wire form of a span.
type spanJSON struct {
	Name     string     `json:"name"`
	StartUS  int64      `json:"start_us"`
	DurUS    int64      `json:"dur_us"`
	Err      string     `json:"err,omitempty"`
	Attrs    []Attr     `json:"attrs,omitempty"`
	Children []spanJSON `json:"children,omitempty"`
}

// wire converts the span tree to its JSON form under each node's lock.
func (s *Span) wire() spanJSON {
	s.mu.Lock()
	j := spanJSON{
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   s.dur.Microseconds(),
		Err:     s.errMsg,
		Attrs:   append([]Attr(nil), s.attrs...),
	}
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		j.Children = append(j.Children, c.wire())
	}
	return j
}

// MarshalJSON renders the span tree.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.wire())
}

// Trace is one rebuild's span tree.
type Trace struct {
	// ID is the tracer-assigned rebuild sequence number, starting at 1.
	ID   int64 `json:"id"`
	root *Span
}

// Root returns the rebuild's root span (nil-safe).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// MarshalJSON renders the trace with its full span tree.
func (t *Trace) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	return json.Marshal(struct {
		ID   int64 `json:"id"`
		Root *Span `json:"root"`
	}{t.ID, t.root})
}

// FlameSummary renders the trace as an indented, human-readable tree:
// span name, duration, share of parent time, attributes, and errors.
func (t *Trace) FlameSummary() string {
	if t == nil || t.root == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "rebuild #%d\n", t.ID)
	writeFlame(&sb, t.root, 0, t.root.Dur())
	return sb.String()
}

func writeFlame(sb *strings.Builder, s *Span, depth int, parent time.Duration) {
	s.mu.Lock()
	name, dur, errMsg := s.name, s.dur, s.errMsg
	attrs := append([]Attr(nil), s.attrs...)
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	fmt.Fprintf(sb, "%s%-*s %10s", strings.Repeat("  ", depth), 24-2*depth, name, dur.Round(time.Microsecond))
	if parent > 0 && depth > 0 {
		fmt.Fprintf(sb, " %5.1f%%", 100*float64(dur)/float64(parent))
	}
	for _, a := range attrs {
		fmt.Fprintf(sb, " %s=%s", a.K, a.V)
	}
	if errMsg != "" {
		fmt.Fprintf(sb, " ERR=%q", errMsg)
	}
	sb.WriteByte('\n')
	for _, c := range kids {
		writeFlame(sb, c, depth+1, dur)
	}
}

// Tracer keeps a bounded ring of rebuild traces, newest last. A nil Tracer
// produces nil traces, whose nil root spans swallow the whole span API.
type Tracer struct {
	mu   sync.Mutex
	next int64
	keep int
	ring []*Trace
}

// NewTracer returns a tracer that retains the last keep traces (keep <= 0
// selects DefTraceCapacity).
func NewTracer(keep int) *Tracer {
	if keep <= 0 {
		keep = DefTraceCapacity
	}
	return &Tracer{keep: keep}
}

// StartRebuild opens a new trace whose root span starts now. The trace is
// retained immediately, so in-flight rebuilds are visible to introspection.
func (t *Tracer) StartRebuild() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	tr := &Trace{ID: t.next, root: newSpan("rebuild")}
	t.ring = append(t.ring, tr)
	if len(t.ring) > t.keep {
		t.ring = append([]*Trace(nil), t.ring[len(t.ring)-t.keep:]...)
	}
	t.mu.Unlock()
	return tr
}

// Traces returns the retained traces, oldest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Trace(nil), t.ring...)
}

// Last returns the most recent trace, or nil.
func (t *Tracer) Last() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 {
		return nil
	}
	return t.ring[len(t.ring)-1]
}
