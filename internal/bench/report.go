package bench

import (
	"fmt"
	"io"
	"sort"

	"odin/internal/core"
)

// programOrder is the paper's Figure 8 x-axis order.
var programOrder = []string{
	"freetype2", "libjpeg", "proj4", "libpng", "re2", "harfbuzz",
	"sqlite", "json", "libxml2", "vorbis", "lcms", "woff2", "x509",
}

// PrintFig8 renders the Figure 8 grid: one row per program, one column per
// tool, cells are normalized execution duration (1.00 = baseline).
func PrintFig8(w io.Writer, r *Fig8Result) {
	grid := map[string]map[string]float64{}
	for _, row := range r.Rows {
		if grid[row.Program] == nil {
			grid[row.Program] = map[string]float64{}
		}
		grid[row.Program][row.Tool] = row.Normalized
	}
	fmt.Fprintf(w, "Figure 8 — normalized execution duration (1.00 = uninstrumented)\n")
	fmt.Fprintf(w, "%-11s", "program")
	for _, t := range AllTools {
		fmt.Fprintf(w, " %15s", t)
	}
	fmt.Fprintln(w)
	for _, p := range orderedPrograms(grid) {
		fmt.Fprintf(w, "%-11s", p)
		for _, t := range AllTools {
			fmt.Fprintf(w, " %15.3f", grid[p][t])
		}
		fmt.Fprintln(w)
	}
}

func orderedPrograms(grid map[string]map[string]float64) []string {
	var out []string
	for _, p := range programOrder {
		if _, ok := grid[p]; ok {
			out = append(out, p)
		}
	}
	var rest []string
	for p := range grid {
		found := false
		for _, q := range out {
			if p == q {
				found = true
			}
		}
		if !found {
			rest = append(rest, p)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// PrintFig9 renders the distribution summary and §5.1 ratio claims.
func PrintFig9(w io.Writer, s *Fig9Summary) {
	fmt.Fprintf(w, "Figure 9 — median coverage-collection overhead per tool\n")
	for _, t := range AllTools {
		fmt.Fprintf(w, "  %-16s %8.2f%%\n", t, s.MedianOverhead[t]*100)
	}
	fmt.Fprintf(w, "§5.1 ratios (paper: 3x vs SanCov, 17x vs DrCov):\n")
	fmt.Fprintf(w, "  OdinCov vs SanCov overhead ratio: %.1fx\n", s.RatioVsSanCov)
	fmt.Fprintf(w, "  OdinCov vs DrCov  overhead ratio: %.1fx\n", s.RatioVsDrCov)
	fmt.Fprintf(w, "  NoPrune/SanCov duration ratio (paper +23%%): %+.1f%%\n", (s.NoPruneVsSanCov-1)*100)
	fmt.Fprintf(w, "  Prune gain NoPrune/OdinCov (paper ~22%%):    %+.1f%%\n", (s.PruneGain-1)*100)
}

// PrintFig10 renders the partition-variant execution overheads.
func PrintFig10(w io.Writer, rows []VariantResult, s *Fig10Summary) {
	fmt.Fprintf(w, "Figure 10 / Table 1 — non-instrumented execution duration by partition variant\n")
	fmt.Fprintf(w, "%-11s %18s %12s %18s  fragments\n", "program", "Odin-OnePartition", "Odin", "Odin-MaxPartition")
	grid := map[string]map[core.Variant]VariantResult{}
	for _, r := range rows {
		if grid[r.Program] == nil {
			grid[r.Program] = map[core.Variant]VariantResult{}
		}
		grid[r.Program][r.Variant] = r
	}
	var progs []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Program] {
			seen[r.Program] = true
			progs = append(progs, r.Program)
		}
	}
	for _, p := range progs {
		g := grid[p]
		fmt.Fprintf(w, "%-11s %17.3f %12.3f %18.3f  %d/%d/%d\n", p,
			g[core.VariantOne].Normalized, g[core.VariantOdin].Normalized, g[core.VariantMax].Normalized,
			g[core.VariantOne].Fragments, g[core.VariantOdin].Fragments, g[core.VariantMax].Fragments)
	}
	fmt.Fprintf(w, "averages (paper: 1.12%% / 1.43%% / 55.77%%): %.2f%% / %.2f%% / %.2f%%\n",
		s.AvgOverhead[core.VariantOne]*100, s.AvgOverhead[core.VariantOdin]*100, s.AvgOverhead[core.VariantMax]*100)
	fmt.Fprintf(w, "Odin vs OnePartition slowdown (paper 0.31%%): %.2f%%\n", s.OdinVsOne*100)
	fmt.Fprintf(w, "MaxPartition worst: %s %+.1f%%  best: %s %+.1f%%\n",
		s.MaxWorstProgram, s.MaxWorst*100, s.MaxBestProgram, s.MaxBest*100)
}

// PrintFig11 renders average per-fragment recompilation times.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintf(w, "Figure 11 — avg fragment recompile time, normalized to whole-program recompile\n")
	fmt.Fprintf(w, "%-11s %14s %10s %14s %16s\n", "program", "OnePartition", "Odin", "MaxPartition", "Odin avg (ms)")
	var savings []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %13.2f%% %9.2f%% %13.2f%% %16.3f\n", r.Program,
			r.Normalized[core.VariantOne]*100,
			r.Normalized[core.VariantOdin]*100,
			r.Normalized[core.VariantMax]*100,
			r.AvgMS[core.VariantOdin])
		savings = append(savings, 1-r.Normalized[core.VariantOdin])
	}
	fmt.Fprintf(w, "Odin average recompilation-time saving vs whole-program (paper 97.91%%): %.2f%%\n",
		mean(savings)*100)
}

// PrintFig12 renders worst-case recompilation + link time.
func PrintFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintf(w, "Figure 12 — worst-case re-instrumentation duration (ms; compile + link)\n")
	fmt.Fprintf(w, "%-11s %20s %16s %20s\n", "program", "OnePartition", "Odin", "MaxPartition")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %12.2f+%-7.2f %9.2f+%-6.2f %12.2f+%-7.2f\n", r.Program,
			r.WorstMS[core.VariantOne], r.LinkMS[core.VariantOne],
			r.WorstMS[core.VariantOdin], r.LinkMS[core.VariantOdin],
			r.WorstMS[core.VariantMax], r.LinkMS[core.VariantMax])
	}
}

// PrintFig3 renders the pipeline breakdown.
func PrintFig3(w io.Writer, r *Fig3Result) {
	fmt.Fprintf(w, "Figure 3 — compilation cost breakdown (libxml2)\n")
	rows := []struct {
		name string
		d    float64
		pct  float64
	}{
		{"frontend (source -> IR)", ms(r.Frontend.Microseconds()), r.Share(r.Frontend)},
		{"optimize + instrument", ms(r.Optimize.Microseconds()), r.Share(r.Optimize)},
		{"code generation", ms(r.CodeGen.Microseconds()), r.Share(r.CodeGen)},
		{"linker", ms(r.Link.Microseconds()), r.Share(r.Link)},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "  %-26s %10.3f ms  %6.2f%%\n", row.name, row.d, row.pct*100)
	}
	fmt.Fprintf(w, "  %-26s %10.3f ms\n", "total", ms(r.Total().Microseconds()))
}

// PrintHeadline renders the summary recompilation metric.
func PrintHeadline(w io.Writer, h *HeadlineResult) {
	fmt.Fprintf(w, "Headline — on-the-fly recompilation latency\n")
	fmt.Fprintf(w, "  rebuilds measured:           %d\n", h.Rebuilds)
	fmt.Fprintf(w, "  mean rebuild latency:        %.3f ms (paper: 82 ms on their scale)\n", h.MeanRebuildMS)
	fmt.Fprintf(w, "  mean full-build latency:     %.3f ms\n", h.MeanFullBuildMS)
	if h.MeanRebuildMS > 0 {
		fmt.Fprintf(w, "  full build / rebuild ratio:  %.1fx\n", h.MeanFullBuildMS/h.MeanRebuildMS)
	}
}

func ms(us int64) float64 { return float64(us) / 1000.0 }
