package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smokeSizes is the whole benchmark at a scale that runs in seconds. It is
// reachable only from this test: the command has no flag for it.
var smokeSizes = sizes{
	name:         "smoke",
	replayInputs: 26,

	fuzzSetupReps: 1, fuzzSeeds: 2, fuzzIters: 40, healthExecs: 20,
	toggleSetupReps: 1, toggleWarm: 2, toggleCycles: 8,
	suiteSetupReps: 1, suiteRounds: 1,
	serveSetupReps: 1, serveWarm: 8, serveRequests: 48,
	layerReps: 1, layerTickets: 2,
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	metricLine = regexp.MustCompile(`(?m)^metric (\S+)\s+(\S+) (\S+)$`)
	nameRE     = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE     = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// runSmoke executes one workload in-process and returns its report and the
// decoded result object from its last line.
func runSmoke(t *testing.T, workload string, trace bool) (string, resultLine) {
	t.Helper()
	var stdout bytes.Buffer
	cfg := config{workload: workload, seed: 1, seconds: refSeconds, trace: trace, scratch: t.TempDir()}
	var log io.Writer = io.Discard
	if testing.Verbose() {
		log = os.Stderr // go test -v shows the invariant lines expected.json pins
	}
	ok, err := execute(cfg, smokeSizes, &stdout, log)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	report := stdout.String()
	if !ok {
		t.Fatalf("%s: output checks failed:\n%s", workload, report)
	}
	lines := strings.Split(strings.TrimSpace(report), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: result %+v", workload, res)
	}
	return report, res
}

// checkMetrics holds a report to the declared lists: every declared name of
// the mode printed exactly once with its unit, and the result object
// carrying exactly the list the mode calls for.
func checkMetrics(t *testing.T, workload, report string, res resultLine, trace bool) {
	t.Helper()
	printed := map[string]string{}
	for _, m := range metricLine.FindAllStringSubmatch(report, -1) {
		if _, dup := printed[m[1]]; dup {
			t.Errorf("%s: metric %s printed twice", workload, m[1])
		}
		printed[m[1]] = m[3]
	}
	wantPrinted := append([]metricDef(nil), endToEnd...)
	inResult := endToEnd
	if trace {
		wantPrinted = append(wantPrinted, perLayer...)
		inResult = perLayer
	}
	for _, d := range wantPrinted {
		if unit, ok := printed[d.name]; !ok || unit != d.unit {
			t.Errorf("%s: metric %s printed with unit %q, want %q", workload, d.name, unit, d.unit)
		}
	}
	if len(printed) != len(wantPrinted) {
		t.Errorf("%s: %d metrics printed, %d declared", workload, len(printed), len(wantPrinted))
	}
	for _, d := range inResult {
		m, ok := res.Metrics[d.name]
		if !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("%s: result object lacks %s [%s]", workload, d.name, d.unit)
		}
	}
	if len(res.Metrics) != len(inResult) {
		t.Errorf("%s: result object has %d metrics, want %d", workload, len(res.Metrics), len(inResult))
	}
}

func TestWorkloadsTraced(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time
			report, res := runSmoke(t, w, true)
			checkMetrics(t, w, report, res, true)
		})
	}
}

func TestUntracedReportsEndToEnd(t *testing.T) {
	t.Parallel()
	report, res := runSmoke(t, "toggle-steady", false)
	checkMetrics(t, "toggle-steady", report, res, false)
	for _, d := range endToEnd {
		if v := res.Metrics[d.name].Value; v == nil || *v <= 0 {
			t.Errorf("end-to-end metric %s is not positive", d.name)
		}
	}
}

func TestDeclaredNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q [%q] does not fit the contract's name and unit rules", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the binary in step: the same
// workloads, the same metrics with the same units, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads %v, the binary runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		if workloads[w] == nil {
			t.Errorf("workload %s has no implementation", w)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end lists %d metrics, the binary prints %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s [%s], the binary prints %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer lists %d metrics, the binary prints %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s [%s], the binary prints %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
}

// TestExpectedPins keeps the expected.json check alive: the smoke scale is
// pinned for every workload (so the traced runs above exercise the
// comparison), and a run whose invariants differ is failed.
func TestExpectedPins(t *testing.T) {
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	for _, scale := range []string{smokeSizes.name, fullSizes(refSeconds).name} {
		for _, w := range workloadNames {
			if len(exp[scale]["1"][w]) == 0 {
				t.Errorf("expected.json pins nothing for %s at scale %s, seed 1", w, scale)
			}
		}
	}
	r := &run{
		cfg: config{workload: "toggle-steady", seed: 1}, sz: smokeSizes, log: io.Discard,
		invariants: map[string]map[string]string{"sqlite": {"ref_hash": "not the pinned hash"}},
	}
	r.checkExpected()
	if r.failed == 0 {
		t.Error("a run whose invariants differ from expected.json was not failed")
	}
}
