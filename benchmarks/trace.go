package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies a traced call. Spans are recorded only from this
// package, around the public calls on the op path; no span or counter lives
// inside the program.
type spanName uint8

const (
	spOp spanName = iota // one primary op, the parent of everything it calls
	spAltOp
	spParse
	spCovNew
	spClose
	spAdd
	spRemove
	spSchedule
	spRebuild
	spRunInput
	spCoveredCount
	spMaybePrune
	spClientAdd
	spClientAction
	spClientFunctions
	spClientFleet
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.primary", "op.alt", "irtext.Parse", "cov.New", "Engine.Close",
	"PatchManager.Add", "PatchManager.Remove", "Engine.Schedule", "Sched.Rebuild",
	"Tool.RunInput", "Tool.CoveredCount", "Tool.MaybePrune",
	"Client.AddProbe", "Client.ProbeAction", "Client.Functions", "Client.Fleet",
}

// span is one recorded call. op is the index of the timed op it belongs to,
// -1 outside the measured phase; parent indexes the same tracer's spans.
type span struct {
	name       spanName
	prog       int16
	parent, op int32
	start, end int64
}

// tracer records spans for one goroutine into memory preallocated before
// the clock starts. A nil tracer is the untraced run: every method is a nil
// check. on gates recording so a traced run can alternate traced and
// untraced blocks of ops and report their difference as the overhead.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	on    bool
	op    int32
	prog  int16
}

func newTracer(t0 time.Time, capacity int) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, capacity), stack: make([]int32, 0, 8), op: -1}
}

// setOp tags following spans with a timed op and its program (or shard).
func (t *tracer) setOp(op, prog int) {
	if t != nil {
		t.op, t.prog = int32(op), int16(prog)
	}
}

// record switches recording on or off between two ops.
func (t *tracer) record(on bool) {
	if t != nil {
		t.on = on
	}
}

// recording reports whether spans are being recorded right now.
func (t *tracer) recording() bool { return t != nil && t.on }

// begin opens a span and returns its handle for end; -1 records nothing.
func (t *tracer) begin(name spanName) int32 {
	if !t.recording() || len(t.spans) == cap(t.spans) {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, prog: t.prog, parent: parent, op: t.op, start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStats is the per-name digest of the spans of timed ops.
type spanStats struct {
	dur  [numSpanNames]sample // µs per call
	self [numSpanNames]float64
}

// digest folds the timed-op spans of every tracer: durations per name and
// self time (duration minus the part its children cover).
func digest(tracers []*tracer) *spanStats {
	st := &spanStats{}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			if s.op < 0 {
				continue
			}
			d := s.end - s.start
			st.dur[s.name] = append(st.dur[s.name], float64(d)/1e3)
			st.self[s.name] += float64(d-child[i]) / 1e3
		}
	}
	return st
}

// coveragePct is the share of the op spans' time that their child spans
// account for: what the layers explain of an op, the rest being harness.
func (st *spanStats) coveragePct() float64 {
	ops := st.dur[spOp].sum() + st.dur[spAltOp].sum()
	return pct(ops-st.self[spOp]-st.self[spAltOp], ops)
}

// writeTrace dumps every span as one JSON object per line.
func writeTrace(path string, programs []string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for ti, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			prog := ""
			if int(s.prog) < len(programs) {
				prog = programs[s.prog]
			}
			fmt.Fprintf(w, "{\"tracer\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op_id\":%d,\"program\":%q}\n",
				ti, spanNames[s.name], s.start, s.end, s.parent, s.op, prog)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// arms accumulates primary-op time in traced and untraced blocks of one
// traced run; their ratio is the tracing overhead, measured on one machine
// state because the blocks alternate.
type arms struct {
	ops  [2]int
	busy [2]time.Duration
}

func (a *arms) add(traced bool, d time.Duration) {
	i := 0
	if traced {
		i = 1
	}
	a.ops[i]++
	a.busy[i] += d
}

func (a *arms) merge(b arms) {
	for i := range a.ops {
		a.ops[i] += b.ops[i]
		a.busy[i] += b.busy[i]
	}
}

func (a *arms) overheadPct() float64 {
	if a.ops[0] == 0 || a.ops[1] == 0 {
		return 0
	}
	off := float64(a.busy[0]) / float64(a.ops[0])
	on := float64(a.busy[1]) / float64(a.ops[1])
	return 100 * (on/off - 1)
}
