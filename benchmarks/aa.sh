#!/usr/bin/env bash
# A/A check: run the whole benchmark 2*N times from one build, labelled A and
# B alternately, and compare the two sets the way two commits would be
# compared. Prints, per workload and end-to-end metric, both medians, both
# quartile pairs, and the gap against the metric's bound in BENCHMARK.json;
# exits non-zero if any gap exceeds its bound or cycles_per_exec is not
# identical in every run. Run i of A and run i of B use seed i, so the two
# sets see the same inputs and only the machine differs.
#
#   benchmarks/aa.sh 3 > benchmarks/AA.md
set -euo pipefail

n="${1:-3}"
cd "$(dirname "$0")/.."
mkdir -p .bench_build
bin=".bench_build/benchmarks-aa"
out=".bench_build/aa-runs.jsonl"
go build -o "$bin" ./benchmarks
: > "$out"

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
for i in $(seq 1 "$n"); do
	# Alternate which label goes first so drift does not favour one.
	labels="A B"
	[ $((i % 2)) -eq 0 ] && labels="B A"
	for label in $labels; do
		for w in $workloads; do
			report="$("$bin" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 2>/dev/null)"
			host="$(grep '^host ' <<<"$report")"
			printf '{"label":"%s","workload":"%s","seed":%d,"host":"%s","result":%s}\n' \
				"$label" "$w" "$i" "${host#host }" "$(tail -n 1 <<<"$report")" >> "$out"
			echo "run $i $label $w done" >&2
		done
	done
done

python3 - "$out" "$n" <<'EOF'
import json, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
n = int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bad = 0

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

print(f"# A/A: two sets of {n} runs of one build, alternating\n")
print("Gap = how much worse B's median is than A's, as a share of A's; "
      "negative means B read better. A metric passes when the gap is within its bound.\n")
print("| workload | metric | A median | A q1..q3 | B median | B q1..q3 | gap | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        vals = {}
        for label in "AB":
            sel = [r for r in runs if r["label"] == label and r["workload"] == w["name"]]
            if any(not r["result"]["correct"] for r in sel):
                print(f"run of {w['name']} failed its checks", file=sys.stderr)
                bad += 1
            vals[label] = [r["result"]["metrics"][m["name"]]["value"] for r in sel]
        a, b = statistics.median(vals["A"]), statistics.median(vals["B"])
        gap = (b - a) / a if m["better"] == "lower" else (a - b) / a
        ok = gap <= m["bound"]
        if m["name"] == "cycles_per_exec":
            # Deterministic at a fixed seed: A and B must agree to the cycle.
            by_seed = {}
            for r in runs:
                if r["workload"] == w["name"]:
                    by_seed.setdefault(r["seed"], set()).add(r["result"]["metrics"][m["name"]]["value"])
            ok = ok and all(len(s) == 1 for s in by_seed.values())
        bad += not ok
        qa, qb = quartiles(vals["A"]), quartiles(vals["B"])
        print(f"| {w['name']} | {m['name']} [{m['unit']}] | {a:.4f} | {qa[0]:.4f}..{qa[1]:.4f} "
              f"| {b:.4f} | {qb[0]:.4f}..{qb[1]:.4f} | {100*gap:+.2f}% | {100*m['bound']:.0f}% | {'ok' if ok else 'OVER'} |")
print("\nHost readings of each run, in the order run (a disturbed run shows here):\n")
print("| run | workload | host |")
print("|---|---|---|")
for r in runs:
    print(f"| {r['label']}{r['seed']} | {r['workload']} | {r['host']} |")
print()
print("every gap within its bound" if not bad else f"{bad} metric(s) over bound or not repeatable")
sys.exit(1 if bad else 0)
EOF
