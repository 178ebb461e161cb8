// Command benchmarks is the repository's benchmark: one invocation runs one
// workload in a fresh process, checks its outputs against the IR
// interpreter, and prints every metric by name with its unit. README.md
// explains the workloads, the metrics and the noise design.
//
//	go run ./benchmarks --workload toggle-steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result object (the last line) carries the end-to-end
// metrics; with --trace 1 the harness records a span around every public
// call on the op path and the result object carries the per-layer metrics.
package main

import (
	_ "embed"
	"flag"
	"fmt"
	"os"
)

//go:embed expected.json
var expectedJSON []byte

func main() {
	cfg := config{scratch: ".bench_build"}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "fuzz-campaign, toggle-steady, suite-build or serve-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", refSeconds, "length of the measured phase on the reference box; scales the fixed op counts")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	cfg.trace = trace != 0
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmarks: --seconds must be at least 1")
		os.Exit(2)
	}
	ok, err := execute(cfg, fullSizes(cfg.seconds), os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmarks: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
