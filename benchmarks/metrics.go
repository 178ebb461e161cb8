package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one reported metric. The lists below are the single
// source of truth: a workload may only set declared names, every declared
// name of the run's mode is printed exactly once, and the smoke test holds
// BENCHMARK.json to the same lists.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system pays for; reported by the untraced
// run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"alt_op_p50_us", "us"},
	{"peak_rss_mb", "MiB"},
	{"cycles_per_exec", "cycles"},
}

// perLayer is the ledger of the traced run, layer = module name. A value of
// 0 on a span- or counter-derived metric means the layer did no work on
// that workload's timed path — the bypass predictions of README.md.
var perLayer = []metricDef{
	{"irtext.parse_us_per_kinstr", "us"},
	{"irtext.print_us_per_kinstr", "us"},
	{"ir.clone_us_per_kinstr", "us"},
	{"ir.fingerprint_us_per_kinstr", "us"},
	{"ir.verify_strict_us_per_kinstr", "us"},
	{"core.new_us", "us"},
	{"core.fragments", "count"},
	{"core.frag_funcs_mean", "count"},
	{"core.schedule_us", "us"},
	{"core.schedule_frags_per_op", "count"},
	{"core.batch_frags_per_op", "count"},
	{"core.rebuild_us", "us"},
	{"core.buildall_us", "us"},
	{"core.compile_wall_us", "us"},
	{"core.compile_cpu_us", "us"},
	{"core.funcs_compiled_per_op", "count"},
	{"core.func_cache_hit_pct", "%"},
	{"core.frag_cache_hit_pct", "%"},
	{"core.spliced_pct", "%"},
	{"core.splice_fallbacks", "count"},
	{"core.degraded", "count"},
	{"core.deferred", "count"},
	{"core.allocs_per_op", "count"},
	{"core.alloc_kb_per_op", "KiB"},
	{"opt.optimize_us_per_kinstr", "us"},
	{"opt.instrs_out_per_in", "ratio"},
	{"codegen.compile_us_per_kinstr", "us"},
	{"codegen.mir_instrs", "count"},
	{"link.full_us", "us"},
	{"link.rebuild_link_us", "us"},
	{"link.incremental_pct", "%"},
	{"link.image_bytes", "bytes"},
	{"persist.put_us", "us"},
	{"persist.get_us", "us"},
	{"persist.snapshot_save_us", "us"},
	{"persist.warm_hit_pct", "%"},
	{"persist.fallbacks", "count"},
	{"persist.bytes_written", "bytes"},
	{"supervisor.ticket_us", "us"},
	{"supervisor.coalesced_mean", "count"},
	{"supervisor.generations", "count"},
	{"supervisor.queue_full", "count"},
	{"serve.boot_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.read_p50_us", "us"},
	{"serve.coalesced_mean", "count"},
	{"serve.shed", "count"},
	{"serve.parked", "count"},
	{"serve.journal_bytes", "bytes"},
	{"vm.exec_us", "us"},
	{"vm.empty_exec_us", "us"},
	{"vm.ns_per_cycle", "ns"},
	{"cov.covered_count_us", "us"},
	{"cov.campaign_cycles_per_exec", "cycles"},
	{"cov.prune_rebuilds", "count"},
	{"cov.pruned_probes", "count"},
	{"cov.active_probes_end", "count"},
	{"cov.overhead_x_baseline", "ratio"},
	{"cov.overhead_x_sancov", "ratio"},
	{"cov.prune_programs_failed", "count"},
	{"fuzz.mutate_share_pct", "%"},
	{"fuzz.corpus_size", "count"},
	{"tail.op_p99_us", "us"},
	{"tail.alt_op_p99_us", "us"},
	{"tail.op_samples", "count"},
	{"tail.alt_op_samples", "count"},
	{"host.steal_pct", "%"},
	{"host.gc_cpu_pct", "%"},
	{"host.gc_cycles", "count"},
	{"host.calib_us", "us"},
	{"host.nproc", "count"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.span_coverage_pct", "%"},
}

// metricSet collects the values of one run.
type metricSet struct {
	defs   map[string]string
	values map[string]float64
}

func newMetricSet() *metricSet {
	ms := &metricSet{defs: map[string]string{}, values: map[string]float64{}}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			ms.defs[d.name] = d.unit
		}
	}
	return ms
}

// set records a value; an undeclared name is a harness bug.
func (ms *metricSet) set(name string, v float64) {
	if _, ok := ms.defs[name]; !ok {
		panic("benchmarks: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	ms.values[name] = v
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is a set of latencies in microseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, us(d)) }

// percentile returns the p-th percentile (nearest rank) of s, 0 when empty.
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(sample(nil), s...)
	sort.Float64s(c)
	i := int(float64(len(c)) * p / 100)
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func (s sample) median() float64 { return s.percentile(50) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// geomean combines per-program (or per-shard) medians. One pooled median
// would sit on the cliff between cheap and expensive programs and jump when
// the machine shifts; the geometric mean moves by the average shift.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// groupP50 is the geometric mean of each group's median; pooled returns all
// groups' samples together (for the p99 and the sample count).
func groupP50(groups []sample) float64 {
	meds := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			meds = append(meds, g.median())
		}
	}
	return geomean(meds)
}

func pooled(groups []sample) sample {
	var all sample
	for _, g := range groups {
		all = append(all, g...)
	}
	return all
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostProbe brackets a run with the host-side readings that tell a disturbed
// run from a clean one.
type hostProbe struct {
	steal0, total0 uint64
	calib          sample
	sink           uint64 // keeps the calibration kernel's result live
}

func startHostProbe() *hostProbe {
	h := &hostProbe{}
	h.steal0, h.total0 = procStat()
	h.calibrate()
	return h
}

// calibrate times a fixed CPU-bound kernel. It is recorded, never used to
// normalise: on this box the whole run shifts with the neighbours and a
// calibration kernel does not cancel that (README.md, noise findings).
func (h *hostProbe) calibrate() {
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 400_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		h.sink += x
		h.calib.add(time.Since(t0))
	}
}

func (h *hostProbe) report(ms *metricSet) {
	h.calibrate()
	steal1, total1 := procStat()
	ms.set("host.steal_pct", pct(float64(steal1-h.steal0), float64(total1-h.total0)))
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ms.set("host.gc_cpu_pct", 100*mem.GCCPUFraction)
	ms.set("host.gc_cycles", float64(mem.NumGC))
	ms.set("host.calib_us", h.calib.median())
	ms.set("host.nproc", float64(runtime.NumCPU()))
}

// procStat returns the steal and total jiffies of the aggregate cpu line.
func procStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB reads VmHWM, the process's resident high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// allocMark snapshots the allocator for per-op allocation rates.
type allocMark struct{ mallocs, bytes uint64 }

func markAllocs() allocMark {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return allocMark{mem.Mallocs, mem.TotalAlloc}
}

// report sets the allocation rates of the measured phase that began at m,
// per primary op.
func (m allocMark) report(ms *metricSet, ops int) {
	end := markAllocs()
	ms.set("core.allocs_per_op", float64(end.mallocs-m.mallocs)/float64(ops))
	ms.set("core.alloc_kb_per_op", float64(end.bytes-m.bytes)/1024/float64(ops))
}
