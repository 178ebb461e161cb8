#!/bin/sh
# CI entry point: vet, build, full tests, race tests on the concurrent
# packages, fuzz smokes, process-level smokes, allocation budgets, and a
# gofmt cleanliness check. `make ci` runs this script.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
# ./... covers every package, including internal/faultinject.
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test (ODIN_VERIFY=all: strict IR verification after every optimizer pass) =="
# Re-run the engine-bearing packages (the only ones that read ODIN_VERIFY)
# with the every-pass tier on: any optimizer pass that emits IR violating SSA
# dominance or the type rules fails its test here with the pass named in the
# error.
ODIN_VERIFY=all go test ./internal/core/ ./internal/cov/ ./internal/bench/

echo "== go test -race (core, link, faultinject, telemetry, rt, vm, cov, persist, serve) =="
go test -race ./internal/core/... ./internal/link/... ./internal/faultinject/... \
	./internal/telemetry/... ./internal/rt/... ./internal/vm/... ./internal/cov/... \
	./internal/persist/... ./internal/serve/...

echo "== fuzz: reset contract (10s) =="
# Generated images that store, memset, memcpy and bump counters anywhere in
# memory, trap and run out of steps: after Reset a machine's 8 MiB must equal
# a fresh vm.New's byte for byte, and after Rebind the second image's.
go test -run xxx -fuzz FuzzResetEquivalence -fuzztime 10s ./internal/vm

echo "== fuzz: toggle history (10s) =="
# Generated add / flip / remove histories over the toggle-test programs,
# with one and two workers, with and without a cache directory: after every
# rebuild the image must equal a cold build of the probe set active at that
# moment, whichever cache generation or tier served each fragment.
go test -run xxx -fuzz FuzzToggleHistory -fuzztime 10s ./internal/core

echo "== fuzz: persist decoders (3 x 10s) =="
# The entry files, the state snapshot and the probe journal's log are the
# only records of what they hold, so their decoders must take any bytes:
# arbitrary entry and snapshot payloads (bare and inside a blob) decode or
# fail as corrupt or skewed, never panic, and a decoded value survives a
# re-encode; a log replay keeps exactly the prefix its records reframe to.
go test -run xxx -fuzz '^FuzzDecodeEntry$' -fuzztime 10s ./internal/persist
go test -run xxx -fuzz '^FuzzDecodeState$' -fuzztime 10s ./internal/persist
go test -run xxx -fuzz '^FuzzLogStream$' -fuzztime 10s ./internal/persist

echo "== fuzz: codegen differential (10s) =="
# Generated loop/phi/call programs (long reuse-heavy chains carried around a
# back edge, sometimes broken by a call), optimized at -O0 and -O2: the
# frame-slot code on the vm must return what the interpreter returns.
go test -run xxx -fuzz FuzzCodegenDifferential -fuzztime 10s ./internal/codegen

echo "== tenant isolation x50 =="
# The shard breaker judges the engine, not the probes: a hostile tenant's
# poison-only generations must never open it for the healthy tenants. One
# tier-1 run of the storm can miss a regression that only shows under an
# unlucky interleaving; fifty take a few seconds.
go test ./internal/serve -run 'TestTenantIsolation' -count=50

echo "== failover convergence x10 (-race) =="
# A result from a slot that a failover swapped out must re-admit against the
# serving slot, never land in the ledger under the old engine's probe IDs.
# These tests hold a generation across a restart in place; ten race-detector
# runs of each catch an interleaving a single tier-1 run can miss.
go test -race ./internal/serve -run 'TestLateCommit|TestWatchdogRestartFromSnapshot|TestParkedRequestsReadmit' -count=10

echo "== retry windows x10 (-race) =="
# The supervisor breaker, the tenant breaker and the restart ladder all take
# their windows from internal/backoff; these tests sleep against those
# windows, so ten race-detector runs of each catch a timing slip a single
# tier-1 run can miss.
go test -race ./internal/core -run 'TestSupervisorBreaker|TestSupervisorHealthBreakerOpen' -count=10
go test -race ./internal/serve -run 'TestAdmissionTenantBreaker|TestTenantBreakerSavesCompileWork|TestRestart|TestChangeAfter' -count=10

echo "== supervisor admission x10 (-race) =="
# The admission queue is one slice under one mutex; blocked *Ctx submitters
# wait on a channel closed when room appears or admission stops. These tests
# fill the queue, block submitters behind it and shut down around them; ten
# race-detector runs catch a lost wake-up a single tier-1 run can miss.
go test -race ./internal/core -run 'TestSupervisorAbandon|TestSupervisorQueueFull|TestSupervisorClose|TestSupervisorDrain|TestDrainRacesAdmission|TestSupervisorHealthSnapshot' -count=10

echo "== supervisor soak (-race, ~30s) =="
# Bounded concurrent-supervisor soak: 8 goroutines of random probe toggles
# against a fault-injecting engine under the race detector. The test asserts
# no admitted ticket is lost or resolved twice, and that the final image is
# never a stale commit — it must replay identically to a serially-built
# reference with the same probe state.
ODIN_SOAK_MS=30000 go test -race -run TestSupervisorSoak -timeout 10m ./internal/core/

echo "== metrics endpoint smoke test =="
# Start an Odin-engine run that serves telemetry on a free port and lingers,
# scrape /metrics, and assert the core families are exposed in Prometheus
# text format.
errlog="$(mktemp)"
metrics="$(mktemp)"
go run ./cmd/odin-run -odin -program json -input smoke \
	-metrics-addr 127.0.0.1:0 -metrics-hold 10s >/dev/null 2>"$errlog" &
run_pid=$!
addr=""
for _ in $(seq 1 100); do
	addr="$(sed -n 's/^telemetry: serving on //p' "$errlog")"
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "metrics smoke: endpoint never came up; stderr:"
	cat "$errlog"
	kill "$run_pid" 2>/dev/null || true
	exit 1
fi
curl -sf "http://$addr/metrics" >"$metrics"
kill "$run_pid" 2>/dev/null || true
wait "$run_pid" 2>/dev/null || true
for family in odin_rebuilds_total odin_fragment_cache_hits_total \
	odin_fragment_degraded_total odin_link_total odin_rebuild_seconds \
	odin_verify_checks_total odin_verify_seconds; do
	if ! grep -q "^# TYPE $family" "$metrics"; then
		echo "metrics smoke: family $family missing from /metrics:"
		cat "$metrics"
		exit 1
	fi
done
rm -f "$errlog" "$metrics"
echo "metrics smoke: ok"

echo "== engine command smoke =="
# The engine flags every command takes from internal/cli, end to end: a
# strict-tier fuzz campaign into a cache dir and snapshot, a second one over
# the same state that also serves telemetry, then odin-partition's read-only
# inspection of that state, which must match the plan it computes.
edir="$(mktemp -d)"
go build -o "$edir/odin-fuzz" ./cmd/odin-fuzz
go build -o "$edir/odin-partition" ./cmd/odin-partition
ODIN_VERIFY=all "$edir/odin-fuzz" -program json -iters 300 \
	-cache-dir "$edir/cache" -snapshot "$edir/state.snap" >/dev/null
ODIN_VERIFY=all "$edir/odin-fuzz" -program json -iters 300 \
	-cache-dir "$edir/cache" -snapshot "$edir/state.snap" \
	-metrics-addr 127.0.0.1:0 >/dev/null 2>"$edir/fuzz.err"
if ! grep -q '^telemetry: serving on ' "$edir/fuzz.err"; then
	echo "engine command smoke: odin-fuzz -metrics-addr served nothing:"
	cat "$edir/fuzz.err"
	exit 1
fi
"$edir/odin-partition" -program json -cache-dir "$edir/cache" \
	-snapshot "$edir/state.snap" -json >"$edir/plan.json"
if ! grep -q '"plan_match": true' "$edir/plan.json"; then
	echo "engine command smoke: snapshot does not match the partition plan:"
	cat "$edir/plan.json"
	exit 1
fi
rm -rf "$edir"
echo "engine command smoke: ok"

echo "== persist crash-restart smoke =="
# Kill-9 tolerance end to end, at process granularity: seed a persistent
# cache + snapshot with a clean run (recording the reference image
# fingerprint), restart cleanly once (publication is write-behind, so this
# proves Close flushed every fragment: all of them must be warm), SIGKILL
# fresh runs against the same cache dir at varying points mid-build, then
# assert a final restart (a) does not crash on whatever half-written state
# the kills left behind, (b) serves warm hits from the surviving entries,
# and (c) produces a byte-identical image.
pdir="$(mktemp -d)"
go build -o "$pdir/odin-run" ./cmd/odin-run
seed_log="$pdir/seed.log"
"$pdir/odin-run" -odin -program libxml2 \
	-cache-dir "$pdir/cache" -snapshot "$pdir/state.snap" >/dev/null 2>"$seed_log"
ref="$(sed -n 's/.*image \([0-9a-f]\{16\}\).*/\1/p' "$seed_log")"
if [ -z "$ref" ]; then
	echo "crash-restart smoke: seed run printed no image fingerprint:"
	cat "$seed_log"
	exit 1
fi
clean_log="$pdir/clean.log"
"$pdir/odin-run" -odin -program libxml2 \
	-cache-dir "$pdir/cache" -snapshot "$pdir/state.snap" >/dev/null 2>"$clean_log"
clean="$(sed -n 's/^; persist: \([0-9]*\/[0-9]*\) fragments warm.*/\1/p' "$clean_log")"
if [ -z "$clean" ] || [ "${clean%/*}" -eq 0 ] || [ "${clean%/*}" != "${clean#*/}" ]; then
	echo "crash-restart smoke: clean restart after the seed run not fully warm (${clean:-no persist line}):"
	cat "$clean_log"
	exit 1
fi
echo "crash-restart smoke: clean restart $clean fragments warm"
for delay in 0 0.02 0.05 0.1; do
	"$pdir/odin-run" -odin -program libxml2 \
		-cache-dir "$pdir/cache" -snapshot "$pdir/state.snap" >/dev/null 2>&1 &
	victim=$!
	sleep "$delay"
	kill -9 "$victim" 2>/dev/null || true
	wait "$victim" 2>/dev/null || true
done
final_log="$pdir/final.log"
"$pdir/odin-run" -odin -program libxml2 \
	-cache-dir "$pdir/cache" -snapshot "$pdir/state.snap" >/dev/null 2>"$final_log"
warm="$(sed -n 's/^; persist: \([0-9]*\)\/.*/\1/p' "$final_log")"
img="$(sed -n 's/.*image \([0-9a-f]\{16\}\).*/\1/p' "$final_log")"
if [ -z "$warm" ] || [ "$warm" -eq 0 ]; then
	echo "crash-restart smoke: no warm hits after kill-9 storm:"
	cat "$final_log"
	exit 1
fi
if [ "$img" != "$ref" ]; then
	echo "crash-restart smoke: image diverged after kill-9 storm: $img != $ref"
	cat "$final_log"
	exit 1
fi
rm -rf "$pdir"
echo "crash-restart smoke: ok ($warm fragments warm, image $img unchanged)"

echo "== serve control-plane smoke (2 shards, clean restart, kill -9, warm restart) =="
# The probe-control plane end to end, at process granularity. Clean leg:
# boot a two-shard odin-serve daemon with a persist root, add one poison
# probe (quarantined: a 422) and one healthy probe through odin-ctl, SIGTERM
# the daemon (the drain writes every shard's snapshot), and restart on the
# same -data root: the restart must boot — a quarantine is the old engine's
# and must not follow the snapshot — and warm-start both shards. Kill -9
# leg: drive probe traffic into both shards, SIGKILL the daemon (no drain,
# no snapshot rewrite — only the kill-9-tolerant object store survives),
# then restart again and assert both shards report warm hits > 0 on their
# boot builds. Warm-starting through an unclean death is the property the
# per-shard persist layout exists to provide.
sdir="$(mktemp -d)"
go build -o "$sdir/odin-serve" ./cmd/odin-serve
go build -o "$sdir/odin-ctl" ./cmd/odin-ctl
# start_serve LOG boots the daemon on $sdir/data, logging to LOG, and waits
# until it listens: serve_pid and saddr are set, or the smoke fails.
start_serve() {
	"$sdir/odin-serve" -shard a=json -shard b=woff2 -data "$sdir/data" \
		-addr 127.0.0.1:0 >/dev/null 2>"$1" &
	serve_pid=$!
	saddr=""
	for _ in $(seq 1 300); do
		saddr="$(sed -n 's/^odin-serve: listening on //p' "$1")"
		[ -n "$saddr" ] && return 0
		kill -0 "$serve_pid" 2>/dev/null || break
		sleep 0.1
	done
	echo "serve smoke: daemon never came up; stderr:"
	cat "$1"
	kill "$serve_pid" 2>/dev/null || true
	exit 1
}
# check_warm LOG WHEN asserts that both shards booted with warm hits.
check_warm() {
	for shard in a b; do
		warm="$(sed -n "s/^odin-serve: shard $shard hosting [^,]*, warm hits //p" "$1")"
		if [ -z "$warm" ] || [ "$warm" -eq 0 ]; then
			echo "serve smoke: shard $shard restarted cold after $2 (warm hits: ${warm:-none}):"
			cat "$1"
			exit 1
		fi
		echo "serve smoke: shard $shard warm hits $warm after $2"
	done
}
start_serve "$sdir/serve1.log"
fn="$("$sdir/odin-ctl" -addr "http://$saddr" funcs a | head -n 1)"
if "$sdir/odin-ctl" -addr "http://$saddr" -tenant ci probe-add a "$fn" poison \
	>/dev/null 2>"$sdir/poison.err" || ! grep -q ' 422 quarantined' "$sdir/poison.err"; then
	echo "serve smoke: poison probe-add on $fn was not quarantined:"
	cat "$sdir/poison.err"
	kill "$serve_pid" 2>/dev/null || true
	exit 1
fi
"$sdir/odin-ctl" -addr "http://$saddr" -tenant ci probe-add a "$fn" >/dev/null
kill -TERM "$serve_pid"
wait "$serve_pid"
start_serve "$sdir/serve2.log"
check_warm "$sdir/serve2.log" "a clean restart"
"$sdir/odin-ctl" -addr "http://$saddr" -tenant ci storm a 10 >/dev/null
"$sdir/odin-ctl" -addr "http://$saddr" -tenant ci storm b 10 >/dev/null
"$sdir/odin-ctl" -addr "http://$saddr" fleet >/dev/null
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
start_serve "$sdir/serve3.log"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
check_warm "$sdir/serve3.log" "kill -9"
rm -rf "$sdir"
echo "serve smoke: ok"

echo "== serve chaos smoke (restart in place under injected wedge) =="
# The self-healing ladder end to end, at process granularity: boot a
# one-shard daemon with a tight watchdog, arm a one-shot 2s stall at the
# supervisor commit site (via -chaos-site), and keep probe traffic flowing.
# The stall wedges the engine past its generation deadline; the watchdog
# must restart it in place, warm from its snapshot, without dropping a
# single probe commit (every odin-ctl storm invocation must exit 0 — its
# retry loop only absorbs shed/backpressure verdicts, not failures).
cdir="$(mktemp -d)"
go build -o "$cdir/odin-serve" ./cmd/odin-serve
go build -o "$cdir/odin-ctl" ./cmd/odin-ctl
chaos_log="$cdir/serve.log"
"$cdir/odin-serve" -shard s=json -data "$cdir/data" -addr 127.0.0.1:0 \
	-watchdog-interval 50ms -gen-deadline 300ms -stuck-queue-age 500ms \
	-chaos-site supervisor:commit -chaos-stall 2s -chaos-delay 1s \
	>/dev/null 2>"$chaos_log" &
chaos_pid=$!
caddr=""
for _ in $(seq 1 300); do
	caddr="$(sed -n 's/^odin-serve: listening on //p' "$chaos_log")"
	[ -n "$caddr" ] && break
	sleep 0.1
done
if [ -z "$caddr" ]; then
	echo "chaos smoke: daemon never came up; stderr:"
	cat "$chaos_log"
	kill "$chaos_pid" 2>/dev/null || true
	exit 1
fi
# Storm until the watchdog has restarted the shard; every storm must commit
# cleanly even while the wedge and the failover swap are in flight.
restarted=""
for _ in $(seq 1 40); do
	if ! "$cdir/odin-ctl" -addr "http://$caddr" -tenant ci storm s 20 >/dev/null; then
		echo "chaos smoke: a storm failed during the failover:"
		cat "$chaos_log"
		kill "$chaos_pid" 2>/dev/null || true
		exit 1
	fi
	if "$cdir/odin-ctl" -addr "http://$caddr" health | grep -q 'restarts=1 '; then
		restarted=yes
		break
	fi
	sleep 0.2
done
health_out="$("$cdir/odin-ctl" -addr "http://$caddr" health)"
kill "$chaos_pid" 2>/dev/null || true
wait "$chaos_pid" 2>/dev/null || true
if [ -z "$restarted" ]; then
	echo "chaos smoke: watchdog never restarted the wedged shard:"
	echo "$health_out"
	cat "$chaos_log"
	exit 1
fi
if ! echo "$health_out" | grep -q 'healthy'; then
	echo "chaos smoke: shard not healthy after the restart:"
	echo "$health_out"
	exit 1
fi
rm -rf "$cdir"
echo "chaos smoke: ok (shard restarted in place under wedge, zero dropped commits)"

echo "== allocation budgets (probe toggle hot loop, steady-state execution) =="
# A single-probe toggle's steady-state allocation envelope, pinned with
# testing.AllocsPerRun: a clone or side table that starts scaling with the
# program instead of the fragment shows here long before it shows up as
# latency. The execution budget does the same for Tool.RunInput with every
# probe active: a hook call, a run or a rebuild that allocates again shows
# as allocs per exec.
go test ./internal/core/ -run TestToggleAllocBudget
go test ./internal/cov/ -run TestRunInputAllocBudget

echo "== gofmt =="
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi
# The fault injector is the robustness-test substrate; hold it to a clean
# gofmt bar explicitly even if the tree-wide check above is ever narrowed.
out="$(gofmt -l internal/faultinject)"
if [ -n "$out" ]; then
	echo "gofmt needed in internal/faultinject:"
	echo "$out"
	exit 1
fi

echo "== non-test lines per package (report only) =="
scripts/loc.sh

echo "ci: all checks passed"
