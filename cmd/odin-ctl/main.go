// Command odin-ctl is the control-plane client for odin-serve: it lists
// shards and instrumentable functions, adds and toggles probes, runs
// generation barriers, and dumps the fleet snapshot or aggregated metrics.
//
// Usage:
//
//	odin-ctl -addr http://127.0.0.1:9180 [-tenant NAME] COMMAND [args]
//
//	shards                       list hosted shards
//	funcs SHARD                  list a shard's instrumentable functions
//	fleet                        fleet snapshot (per-shard queue/breaker/persist, tenants)
//	health                       fleet health view: shard state, breaker, failovers
//	metrics                      aggregated Prometheus exposition
//	probe-add SHARD FUNC [KIND]  add + activate a probe (kind: counter|poison)
//	probe-enable SHARD ID        re-enable a removed probe
//	probe-remove SHARD ID        deactivate a probe
//	probe-change SHARD ID        generation barrier on an owned probe
//	sync SHARD                   generation barrier
//	storm SHARD N                add/remove N counter probes round-robin over
//	                             the shard's functions (load generator)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"odin/internal/backoff"
	"odin/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:9180", "odin-serve base URL")
	tenant := flag.String("tenant", "", "tenant identity sent as "+serve.TenantHeader)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: odin-ctl [-addr URL] [-tenant NAME] COMMAND [args]\n")
		fmt.Fprintf(os.Stderr, "commands: shards, funcs, fleet, health, metrics, probe-add, probe-enable, probe-remove, probe-change, sync, storm\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := &serve.Client{Base: *addr, Tenant: *tenant}
	if err := dispatch(c, args[0], args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "odin-ctl: %v\n", err)
		os.Exit(1)
	}
}

func dispatch(c *serve.Client, cmd string, args []string) error {
	switch cmd {
	case "shards":
		shards, err := c.Shards()
		if err != nil {
			return err
		}
		for _, sh := range shards {
			fmt.Printf("%s\t%s\n", sh.Name, sh.Program)
		}
		return nil

	case "funcs":
		if len(args) != 1 {
			return fmt.Errorf("usage: funcs SHARD")
		}
		funcs, err := c.Functions(args[0])
		if err != nil {
			return err
		}
		for _, f := range funcs {
			fmt.Println(f)
		}
		return nil

	case "fleet":
		snap, err := c.Fleet()
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)

	case "health":
		snap, err := c.Fleet()
		if err != nil {
			return err
		}
		return printHealth(os.Stdout, snap)

	case "metrics":
		text, err := c.Metrics()
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil

	case "probe-add":
		if len(args) < 2 || len(args) > 3 {
			return fmt.Errorf("usage: probe-add SHARD FUNC [KIND]")
		}
		spec := serve.ProbeSpec{Func: args[1]}
		if len(args) == 3 {
			spec.Kind = args[2]
		}
		res, err := c.AddProbe(args[0], spec)
		if err != nil {
			return err
		}
		fmt.Printf("probe %d active (gen %d, coalesced %d)\n", res.ID, res.Gen, res.Coalesced)
		return nil

	case "probe-enable", "probe-remove", "probe-change":
		if len(args) != 2 {
			return fmt.Errorf("usage: %s SHARD ID", cmd)
		}
		id, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("probe ID %q must be an integer", args[1])
		}
		action := map[string]string{
			"probe-enable": "enable", "probe-remove": "remove", "probe-change": "change",
		}[cmd]
		res, err := c.ProbeAction(args[0], id, action)
		if err != nil {
			return err
		}
		fmt.Printf("probe %d %sd (gen %d)\n", id, action, res.Gen)
		return nil

	case "sync":
		if len(args) != 1 {
			return fmt.Errorf("usage: sync SHARD")
		}
		res, err := c.Sync(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("synced at gen %d\n", res.Gen)
		return nil

	case "storm":
		if len(args) != 2 {
			return fmt.Errorf("usage: storm SHARD N")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 1 {
			return fmt.Errorf("N %q must be a positive integer", args[1])
		}
		return storm(c, args[0], n)

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printHealth renders the operator-facing fleet health view: one line per
// shard with the watchdog state, breaker, and recovery history, then
// recent restarts.
func printHealth(w *os.File, snap serve.FleetSnapshot) error {
	for _, sh := range snap.Shards {
		mode := ""
		if sh.Persist != nil && sh.Persist.ReadOnly {
			mode = " read-only"
		}
		fmt.Fprintf(w, "%-12s %-10s breaker=%-9s queue=%d probes=%d%s restarts=%d journal=%d\n",
			sh.Name, sh.State, sh.Supervisor.Breaker, sh.Health.QueueDepth,
			sh.ActiveProbes, mode, sh.Restarts, sh.JournalRecords)
		for _, ev := range sh.Failovers {
			fmt.Fprintf(w, "  restart %.0fms at %s (%s)\n",
				ev.DurationMS, time.Unix(ev.At, 0).Format(time.TimeOnly), ev.Cause)
		}
	}
	return nil
}

// storm is a serial load generator: n add+remove probe cycles round-robin
// over the shard's functions, retrying shed verdicts, reporting throughput.
func storm(c *serve.Client, shard string, n int) error {
	funcs, err := c.Functions(shard)
	if err != nil {
		return err
	}
	if len(funcs) == 0 {
		return fmt.Errorf("shard %s exposes no instrumentable functions", shard)
	}
	t0 := time.Now()
	ops := 0
	for i := 0; i < n; i++ {
		fn := funcs[i%len(funcs)]
		res, err := retryTemporary(func() (serve.ProbeResult, error) {
			return c.AddProbe(shard, serve.ProbeSpec{Func: fn})
		})
		if err != nil {
			return fmt.Errorf("add %s: %w", fn, err)
		}
		ops++
		if _, err := retryTemporary(func() (serve.ProbeResult, error) {
			return c.ProbeAction(shard, res.ID, "remove")
		}); err != nil {
			return fmt.Errorf("remove %d: %w", res.ID, err)
		}
		ops++
	}
	wall := time.Since(t0)
	fmt.Printf("storm: %d ops in %v (%.0f ops/s)\n", ops, wall.Round(time.Millisecond),
		float64(ops)/wall.Seconds())
	return nil
}

// retryTemporary retries shed/backpressure verdicts with full jitter: the
// server's first Retry-After, floored at 100ms and clamped to backoff.Max,
// seeds a backoff that doubles per attempt, and the actual sleep is drawn
// uniformly from (0, wait]. A fleet of clients honoring a long Retry-After
// verbatim would re-converge on the same instant; capped, jittered waits
// decorrelate the thundering herd instead of marching it back in lockstep.
func retryTemporary(op func() (serve.ProbeResult, error)) (serve.ProbeResult, error) {
	var wait backoff.Backoff
	for attempt := 0; ; attempt++ {
		res, err := op()
		if err == nil || attempt >= 20 {
			return res, err
		}
		ae, ok := err.(*serve.APIError)
		if !ok || !ae.Temporary() {
			return res, err
		}
		if attempt == 0 {
			wait = backoff.New(min(max(ae.RetryAfter, 100*time.Millisecond), backoff.Max))
		}
		time.Sleep(time.Duration(1 + rand.Int63n(int64(wait.Next()))))
	}
}
