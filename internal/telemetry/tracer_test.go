package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanTree: spans nest, attributes and errors attach, and the JSON form
// preserves the tree.
func TestSpanTree(t *testing.T) {
	tr := NewTracer(4)
	trace := tr.StartRebuild()
	root := trace.Root()
	root.SetAttrInt("scheduled", 3)
	frag := root.Child("fragment")
	frag.SetAttrInt("id", 7)
	mat := frag.Child("materialize")
	mat.End()
	op := frag.Child("opt")
	op.StaticChild("constprop", time.Now().Add(-time.Millisecond), time.Millisecond)
	op.EndErr(errors.New("boom"))
	frag.EndErr(errors.New("boom"))
	root.End()

	if trace.ID != 1 {
		t.Fatalf("trace ID = %d, want 1", trace.ID)
	}
	if got := root.Attr("scheduled"); got != "3" {
		t.Fatalf("attr = %q", got)
	}
	if f := root.Find("constprop"); f == nil || f.Dur() != time.Millisecond {
		t.Fatalf("Find(constprop) = %v", f)
	}
	if root.Find("opt").Err() != "boom" {
		t.Fatal("error not attached to opt span")
	}
	names := SpanNames(trace)
	want := []string{"constprop", "fragment", "materialize", "opt", "rebuild"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("span names = %v, want %v", names, want)
	}

	raw, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID   int64 `json:"id"`
		Root struct {
			Name     string `json:"name"`
			Children []struct {
				Name     string `json:"name"`
				Err      string `json:"err"`
				Children []struct {
					Name string `json:"name"`
				} `json:"children"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != 1 || decoded.Root.Name != "rebuild" ||
		len(decoded.Root.Children) != 1 || decoded.Root.Children[0].Err != "boom" ||
		len(decoded.Root.Children[0].Children) != 2 {
		t.Fatalf("JSON tree malformed: %s", raw)
	}

	flame := trace.FlameSummary()
	for _, needle := range []string{"rebuild #1", "fragment", "id=7", `ERR="boom"`, "constprop"} {
		if !strings.Contains(flame, needle) {
			t.Fatalf("flame summary missing %q:\n%s", needle, flame)
		}
	}
}

// TestTracerRing: the tracer keeps only the newest traces, oldest first.
func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		trace := tr.StartRebuild()
		trace.Root().End()
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(traces))
	}
	if traces[0].ID != 3 || traces[2].ID != 5 {
		t.Fatalf("ring IDs = %d..%d, want 3..5", traces[0].ID, traces[2].ID)
	}
	if tr.Last().ID != 5 {
		t.Fatalf("Last = %d", tr.Last().ID)
	}
}

// TestSpanConcurrentChildren: concurrent workers attaching children to one
// parent (the compile span during a parallel rebuild) must be safe and lose
// nothing. Run under -race.
func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTracer(1)
	trace := tr.StartRebuild()
	comp := trace.Root().Child("compile")
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				fs := comp.Child("fragment")
				fs.SetAttrInt("id", int64(w*each+i))
				fs.Child("materialize").End()
				fs.End()
			}
		}(w)
	}
	wg.Wait()
	comp.End()
	trace.Root().End()
	if got := len(comp.Children()); got != workers*each {
		t.Fatalf("compile span has %d children, want %d", got, workers*each)
	}
	if _, err := json.Marshal(trace); err != nil {
		t.Fatal(err)
	}
}

// SpanNames returns the sorted multiset of span names in a trace — a quick
// structural fingerprint for tests.
func SpanNames(t *Trace) []string {
	var out []string
	var walk func(s *Span)
	walk = func(s *Span) {
		if s == nil {
			return
		}
		out = append(out, s.Name())
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(t.Root())
	sort.Strings(out)
	return out
}
