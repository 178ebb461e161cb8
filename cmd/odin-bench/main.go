// Command odin-bench regenerates the paper's evaluation tables and figures
// (§5) on the generated 13-program suite.
//
// Usage:
//
//	odin-bench [-experiment all|fig3|fig8|fig9|fig10|fig11|fig12|headline|ablation]
//	           [-campaign N] [-programs a,b,c] [-json] [-metrics-addr HOST:PORT]
//
// ODIN_VERIFY=off|boundaries|all picks the verification tier of every engine
// the harness creates.
//
// With -json the selected experiments' raw results — including every
// rebuild's full RebuildStats with the degradation/quarantine/deferral
// accounting — are emitted as one JSON document on stdout (progress chatter
// moves to stderr). With -metrics-addr a telemetry registry is attached to
// every engine the harness creates and served live for the duration of the
// run.
//
// This command reproduces the paper's figures; the repository benchmark, the
// yardstick for performance changes, is `go run ./benchmarks`. See
// EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"odin/internal/bench"
	"odin/internal/progen"
	"odin/internal/telemetry"
)

// experiments are the values -experiment accepts.
var experiments = []string{"all", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "headline", "ablation"}

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: "+strings.Join(experiments, ", "))
	campaign := flag.Int("campaign", 400, "fuzzing iterations used to generate each replay corpus")
	programs := flag.String("programs", "", "comma-separated subset of programs (default: all 13)")
	jsonOut := flag.Bool("json", false, "emit raw experiment results (full RebuildStats included) as JSON on stdout")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry for the run on this host:port (port 0 = pick a free port)")
	flag.Parse()

	if !slices.Contains(experiments, *experiment) {
		fmt.Fprintf(os.Stderr, "odin-bench: -experiment %q: want one of %s\n", *experiment, strings.Join(experiments, "|"))
		os.Exit(2)
	}

	if err := run(*experiment, *campaign, *programs, *jsonOut, *metricsAddr); err != nil {
		fmt.Fprintf(os.Stderr, "odin-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(experiment string, campaign int, programs string, jsonOut bool, metricsAddr string) error {
	var w io.Writer = os.Stdout
	report := map[string]any{}
	if jsonOut {
		// Human-readable tables and progress move to stderr; stdout carries
		// exactly one JSON document.
		w = os.Stderr
		defer func() {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(report)
		}()
	}
	if metricsAddr != "" {
		bench.Telemetry = telemetry.NewRegistry()
		srv, err := telemetry.Serve(metricsAddr, bench.Telemetry, func() any {
			return map[string]any{"experiment": experiment}
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving on %s\n", srv.Addr())
	}

	show := func(name string) bool { return experiment == "all" || experiment == name }
	// Fig. 3 synthesizes its own workload (libxml2's pipeline stages), so it
	// runs before, and on its own without, suite preparation.
	if show("fig3") {
		r, err := bench.RunFig3()
		if err != nil {
			return err
		}
		report["fig3"] = r
		bench.PrintFig3(w, r)
		fmt.Fprintln(w)
		if experiment == "fig3" {
			return nil
		}
	}

	profiles := progen.Suite()
	if programs != "" {
		var sel []progen.Profile
		for _, name := range strings.Split(programs, ",") {
			p, ok := progen.ByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown program %q", name)
			}
			sel = append(sel, p)
		}
		profiles = sel
	}
	fmt.Fprintf(w, "preparing %d programs (campaign %d iterations each)...\n", len(profiles), campaign)
	var progs []*bench.ProgramData
	for _, p := range profiles {
		pd, err := bench.Prepare(p, campaign)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-11s corpus=%d\n", pd.Name, len(pd.Corpus))
		progs = append(progs, pd)
	}
	fmt.Fprintln(w)

	var f8 *bench.Fig8Result
	if show("fig8") || show("fig9") || show("headline") {
		var err error
		if f8, err = bench.RunFig8(progs); err != nil {
			return err
		}
	}
	var rows []bench.VariantResult
	if show("fig10") || show("fig11") || show("fig12") {
		var err error
		if rows, err = bench.RunFig10(progs); err != nil {
			return err
		}
	}

	if show("fig8") {
		report["fig8"] = f8
		bench.PrintFig8(w, f8)
		fmt.Fprintln(w)
	}
	if show("fig9") {
		s := bench.Summarize(f8)
		report["fig9"] = s
		bench.PrintFig9(w, s)
		fmt.Fprintln(w)
	}
	if show("fig10") {
		report["fig10"] = rows
		bench.PrintFig10(w, rows, bench.SummarizeFig10(rows))
		fmt.Fprintln(w)
	}
	if show("fig11") {
		f11 := bench.Fig11(rows)
		report["fig11"] = f11
		bench.PrintFig11(w, f11)
		fmt.Fprintln(w)
	}
	if show("fig12") {
		f12 := bench.Fig12(rows)
		report["fig12"] = f12
		bench.PrintFig12(w, f12)
		fmt.Fprintln(w)
	}
	if show("ablation") {
		rows, err := bench.RunAblation(progs)
		if err != nil {
			return err
		}
		report["ablation"] = rows
		bench.PrintAblation(w, rows)
		fmt.Fprintln(w)
	}
	if show("headline") {
		h, err := bench.Headline(f8, progs)
		if err != nil {
			return err
		}
		report["headline"] = h
		bench.PrintHeadline(w, h)
	}
	return nil
}
