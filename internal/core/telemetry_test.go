package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"odin/internal/faultinject"
	"odin/internal/irtext"
	"odin/internal/telemetry"
)

// counterValue reads a counter's current value out of a registry snapshot.
func counterValue(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	var total uint64
	found := false
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			total += uint64(m.Value)
			found = true
		}
	}
	if !found {
		t.Fatalf("metric %q not registered", name)
	}
	return total
}

// newTelemetryEngine builds an instrumented engine over manyFuncSrc with a
// probe on each of the named functions.
func newTelemetryEngine(t *testing.T, n, workers int, probes []string, reg *telemetry.Registry) *Engine {
	t.Helper()
	m := irtext.MustParse("m", manyFuncSrc(n))
	e, err := New(m, Options{
		Variant:       VariantMax,
		Workers:       workers,
		ExtraBuiltins: []string{"__test_hit"},
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range probes {
		f := e.Pristine.LookupFunc(fn)
		e.Manager.Add(&hookProbe{fnName: fn, block: f.Blocks[0], id: 1})
	}
	return e
}

// TestRebuildSpanTree: with a registry attached, one rebuild must produce a
// complete span tree — the four rebuild phases, one fragment span per
// compiled fragment, and stage children on every fragment that actually
// compiled — plus metric counts matching RebuildStats exactly.
func TestRebuildSpanTree(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTelemetryEngine(t, 8, 4, []string{"f0", "f3", "main"}, reg)
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}

	tr := reg.Tracer().Last()
	if tr == nil {
		t.Fatal("no rebuild trace recorded")
	}
	root := tr.Root()
	if root.Dur() <= 0 {
		t.Fatal("root span not ended")
	}
	for _, phase := range []string{"instrument", "compile", "link", "commit"} {
		if root.Find(phase) == nil {
			t.Fatalf("rebuild span tree missing %q phase:\n%s", phase, tr.FlameSummary())
		}
	}
	if got := root.Attr("link_mode"); got != "full" {
		t.Fatalf("root link_mode = %q, want full (cold build)", got)
	}
	if got := root.Attr("fragments"); got != fmt.Sprint(len(st.Fragments)) {
		t.Fatalf("root fragments attr = %q, want %d", got, len(st.Fragments))
	}

	// Every compiled fragment appears once under the compile phase, with
	// its stage children: materialize always, opt+codegen unless the
	// content cache short-circuited (cold build: never).
	frags := map[int64]*telemetry.Span{}
	for _, fs := range root.Find("compile").Children() {
		if fs.Name() != "fragment" {
			t.Fatalf("unexpected child %q under compile", fs.Name())
		}
		var id int64
		fmt.Sscan(fs.Attr("id"), &id)
		if frags[id] != nil {
			t.Fatalf("fragment %d has two spans", id)
		}
		frags[id] = fs
	}
	if len(frags) != len(st.Fragments) {
		t.Fatalf("%d fragment spans for %d compiled fragments", len(frags), len(st.Fragments))
	}
	for _, fc := range st.Fragments {
		fs := frags[int64(fc.FragID)]
		if fs == nil {
			t.Fatalf("fragment %d has no span", fc.FragID)
		}
		for _, stage := range []string{StageMaterialize, StageOpt, StageCodegen} {
			if fs.Find(stage) == nil {
				t.Fatalf("fragment %d span missing %q stage", fc.FragID, stage)
			}
		}
		// The optimizer ran at -O2, so the opt stage must carry per-pass
		// children recorded via opt.Options.OnPass.
		if passes := fs.Find(StageOpt).Children(); len(passes) == 0 {
			t.Fatalf("fragment %d opt stage has no per-pass spans", fc.FragID)
		}
		if fs.Err() != "" {
			t.Fatalf("fragment %d span carries error %q on clean build", fc.FragID, fs.Err())
		}
	}

	// Metric families mirror the stats.
	if got := counterValue(t, reg, MetricRebuilds); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricRebuilds, got)
	}
	if got := counterValue(t, reg, MetricFragCompiles); got != uint64(len(st.Fragments)) {
		t.Fatalf("%s = %d, want %d", MetricFragCompiles, got, len(st.Fragments))
	}
	if got := counterValue(t, reg, MetricCacheMisses); got != uint64(len(st.Fragments)) {
		t.Fatalf("%s = %d, want %d (cold build misses everything)", MetricCacheMisses, got, len(st.Fragments))
	}
	for _, name := range []string{MetricCacheHits, MetricDegraded, MetricQuarantined, MetricDeferred, MetricRebuildFailures} {
		if got := counterValue(t, reg, name); got != 0 {
			t.Fatalf("%s = %d, want 0 on clean cold build", name, got)
		}
	}
	if got := counterValue(t, reg, "odin_link_total"); got != 1 {
		t.Fatalf("odin_link_total = %d, want 1", got)
	}
}

// TestSplicedFragmentSpanTree: the splice's reduced compile goes through the
// same compile primitive as a whole-fragment one, so a spliced fragment's
// span carries the same stage children — opt with one child per pass — and a
// splice that fell back names its reason on the fragment span.
func TestSplicedFragmentSpanTree(t *testing.T) {
	reg := telemetry.NewRegistry()
	box := &hookBox{}
	e := spliceEngine(t, spliceGroupSrc, Options{Variant: VariantOdin, Workers: 1, Telemetry: reg, FaultHook: box.at})
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	fragSpan := func(sym string) *telemetry.Span {
		t.Helper()
		for _, fs := range reg.Tracer().Last().Root().Find("compile").Children() {
			if fs.Attr("id") == fmt.Sprint(e.Plan.FragOf[sym]) {
				return fs
			}
		}
		t.Fatalf("no span for the fragment of @%s", sym)
		return nil
	}

	probeOn(t, e, "w2", 1)
	_, stats, err := rebuildOnce(e)
	if err != nil {
		t.Fatal(err)
	}
	if fc := spliceFragStat(t, e, stats, "w2"); !fc.Spliced || fc.SpliceFallbackReason != "" {
		t.Fatalf("toggle did not splice: %+v", fc)
	}
	fs := fragSpan("w2")
	if fs.Attr("spliced") != "true" {
		t.Fatalf("fragment span not marked spliced:\n%s", reg.Tracer().Last().FlameSummary())
	}
	for _, stage := range []string{StageMaterialize, StageOpt, StageCodegen} {
		if fs.Find(stage) == nil {
			t.Fatalf("spliced fragment span missing %q stage", stage)
		}
	}
	if passes := fs.Find(StageOpt).Children(); len(passes) == 0 {
		t.Fatal("spliced fragment's opt stage has no per-pass spans")
	}

	// A fault in the reduced compile's optimizer: the fallback is attributed
	// to the pass, on the stats and on the span alike.
	probeOn(t, e, "w0", 2)
	box.fn = faultinject.New(1).Arm(faultinject.Rule{Site: "opt:instcombine", Kind: faultinject.KindError, Rate: 1, Times: 1}).At
	_, stats, err = rebuildOnce(e)
	if err != nil {
		t.Fatal(err)
	}
	fc := spliceFragStat(t, e, stats, "w0")
	if !fc.SpliceFallback || fc.SpliceFallbackReason != "opt:instcombine" {
		t.Fatalf("fallback reason = %q (fallback %v), want opt:instcombine", fc.SpliceFallbackReason, fc.SpliceFallback)
	}
	if got := fragSpan("w0").Attr("splice_fallback_reason"); got != fc.SpliceFallbackReason {
		t.Fatalf("span splice_fallback_reason = %q, want %q", got, fc.SpliceFallbackReason)
	}

	// A one-function fragment has nothing to reuse.
	probeOn(t, e, "main", 3)
	if _, stats, err = rebuildOnce(e); err != nil {
		t.Fatal(err)
	}
	if fc := spliceFragStat(t, e, stats, "main"); fc.SpliceFallbackReason != "nothing-reusable" {
		t.Fatalf("one-function fragment: fallback reason = %q, want nothing-reusable", fc.SpliceFallbackReason)
	}
}

// TestRebuildSpanTreeError: a failed rebuild must attach the failure to the
// root span and count a rebuild failure, not a rebuild.
func TestRebuildSpanTreeError(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTelemetryEngine(t, 6, 2, nil, reg)
	e.testFragHook = func(id int) error {
		if id == 1 {
			return fmt.Errorf("poisoned")
		}
		return nil
	}
	if _, _, err := e.BuildAll(); err == nil {
		t.Fatal("poisoned build succeeded")
	}
	tr := reg.Tracer().Last()
	if tr == nil {
		t.Fatal("failed rebuild left no trace")
	}
	if tr.Root().Err() == "" {
		t.Fatal("failed rebuild's root span has no error attached")
	}
	if got := counterValue(t, reg, MetricRebuildFailures); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricRebuildFailures, got)
	}
	if got := counterValue(t, reg, MetricRebuilds); got != 0 {
		t.Fatalf("%s = %d, want 0", MetricRebuilds, got)
	}
}

// TestDegradedFragmentSpanAndMetrics: a persistent opt-stage fault walks the
// degradation ladder; the fragment spans and degradation metric families
// must record the outcome (degraded at -O0 with the failing pass
// quarantined).
func TestDegradedFragmentSpanAndMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := irtext.MustParse("m", manyFuncSrc(4))
	e, err := New(m, Options{
		Variant:   VariantMax,
		Workers:   1,
		Telemetry: reg,
		FaultHook: func(site string) error {
			if site == "opt:cse" {
				return fmt.Errorf("injected cse fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded != len(st.Fragments) || st.Quarantined != len(st.Fragments) {
		t.Fatalf("degraded=%d quarantined=%d of %d fragments, want all",
			st.Degraded, st.Quarantined, len(st.Fragments))
	}
	if got := counterValue(t, reg, MetricDegraded); got != uint64(st.Degraded) {
		t.Fatalf("%s = %d, want %d", MetricDegraded, got, st.Degraded)
	}
	if got := counterValue(t, reg, MetricQuarantined); got != uint64(st.Quarantined) {
		t.Fatalf("%s = %d, want %d", MetricQuarantined, got, st.Quarantined)
	}
	for _, fs := range reg.Tracer().Last().Root().Find("compile").Children() {
		if fs.Attr("degraded") != "true" {
			t.Fatalf("fragment span lacks degraded attr: %v", fs)
		}
		if fs.Attr("quarantined_pass") != "cse" {
			t.Fatalf("fragment span quarantined_pass = %q, want cse", fs.Attr("quarantined_pass"))
		}
		if fs.Attr("level") != "0" {
			t.Fatalf("fragment span level = %q, want 0", fs.Attr("level"))
		}
	}
}

// TestNilTelemetryUnchanged: with Options.Telemetry nil the engine must
// produce a bit-identical image and record no telemetry state anywhere.
func TestNilTelemetryUnchanged(t *testing.T) {
	build := func(reg *telemetry.Registry) *Engine {
		e := newTelemetryEngine(t, 6, 4, []string{"f0", "main"}, reg)
		if _, _, err := e.BuildAll(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	plain := build(nil)
	traced := build(telemetry.NewRegistry())
	if plain.Telemetry() != nil {
		t.Fatal("nil-telemetry engine reports a registry")
	}
	if !reflect.DeepEqual(plain.Executable().Funcs, traced.Executable().Funcs) {
		t.Fatal("telemetry changed the linked code")
	}
	// Instrumented spans on a nil registry are nil end to end.
	if s := plain.Telemetry().Tracer().StartRebuild().Root(); s != nil {
		t.Fatal("nil registry produced a live span")
	}
}

// TestSerialEquivalent: the serial-equivalent cost is the per-fragment
// middle+back-end sum, independent of workers, wall time, and stages the
// cache skipped.
func TestSerialEquivalent(t *testing.T) {
	st := &RebuildStats{
		Workers:     8,
		CompileWall: 5 * time.Millisecond,
		Fragments: []FragCompile{
			{FragID: 0, Materialize: time.Millisecond, Opt: 2 * time.Millisecond, CodeGen: 3 * time.Millisecond},
			{FragID: 1, Materialize: 4 * time.Millisecond, Opt: 5 * time.Millisecond, CodeGen: 6 * time.Millisecond},
			{FragID: 2, Materialize: time.Millisecond, CacheHit: true},
		},
	}
	// Materialize time and wall-clock are excluded; cache hits contribute
	// their (zero) middle+back-end time.
	if got, want := st.SerialEquivalent(), 16*time.Millisecond; got != want {
		t.Fatalf("SerialEquivalent = %v, want %v", got, want)
	}
	if got := (&RebuildStats{}).SerialEquivalent(); got != 0 {
		t.Fatalf("empty SerialEquivalent = %v, want 0", got)
	}

	// And on a real rebuild it equals the recomputed sum.
	e := newTelemetryEngine(t, 5, 4, []string{"f1"}, nil)
	_, rst, err := e.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, fc := range rst.Fragments {
		sum += fc.Opt + fc.CodeGen
	}
	if rst.SerialEquivalent() != sum {
		t.Fatalf("SerialEquivalent = %v, recomputed %v", rst.SerialEquivalent(), sum)
	}
}

// TestEngineMetricsEndpoint: an engine's registry and Snapshot behind
// telemetry.Serve — how the CLIs expose -metrics-addr — make a live endpoint;
// after a rebuild /metrics must expose the rebuild, cache, and degradation
// families in Prometheus text and /debug/odin the engine snapshot.
func TestEngineMetricsEndpoint(t *testing.T) {
	m := irtext.MustParse("m", manyFuncSrc(4))
	reg := telemetry.NewRegistry()
	e, err := New(m, Options{Variant: VariantMax, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	srv, err := telemetry.Serve("127.0.0.1:0", reg, func() any { return e.Snapshot() })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, family := range []string{
		MetricRebuilds, MetricFragCompiles, MetricCacheHits, MetricCacheMisses,
		MetricDegraded, MetricDeferred, MetricRebuildSeconds,
	} {
		if !strings.Contains(text, "# TYPE "+family) {
			t.Fatalf("/metrics missing family %s:\n%s", family, text)
		}
	}
	if !strings.Contains(text, MetricRebuilds+" 1") {
		t.Fatalf("/metrics does not report the rebuild:\n%s", text)
	}

	resp, err = http.Get("http://" + addr + "/debug/odin")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Status EngineSnapshot `json:"status"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/odin not JSON: %v", err)
	}
	if doc.Status.Fragments != len(e.Plan.Fragments) || doc.Status.Rebuilds != 1 {
		t.Fatalf("snapshot = %+v, want %d fragments, 1 rebuild", doc.Status, len(e.Plan.Fragments))
	}
	if doc.Status.LastRebuild == nil || len(doc.Status.LastRebuild.Fragments) == 0 {
		t.Fatal("snapshot missing last rebuild stats")
	}
}

// TestWrapFaultHook: the telemetry wrapper counts calls and raised faults
// (errors and re-panicked panics) without changing hook behavior.
func TestWrapFaultHook(t *testing.T) {
	reg := telemetry.NewRegistry()
	calls := 0
	hook := wrapFaultHook(reg, func(site string) error {
		calls++
		switch site {
		case "err":
			return fmt.Errorf("boom")
		case "panic":
			panic("kaboom")
		}
		return nil
	})
	if hook("ok") != nil {
		t.Fatal("clean site errored")
	}
	if hook("err") == nil {
		t.Fatal("error site returned nil")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic site did not panic")
			}
		}()
		hook("panic")
	}()
	if calls != 3 {
		t.Fatalf("underlying hook called %d times, want 3", calls)
	}
	if got := counterValue(t, reg, MetricFaultHookCalls); got != 3 {
		t.Fatalf("%s = %d, want 3", MetricFaultHookCalls, got)
	}
	if got := counterValue(t, reg, MetricFaultsRaised); got != 2 {
		t.Fatalf("%s = %d, want 2", MetricFaultsRaised, got)
	}
	// Nil registry or nil hook: wrapper is the identity.
	if wrapFaultHook(nil, nil) != nil {
		t.Fatal("wrapFaultHook(nil, nil) != nil")
	}
}
