// Command odin-serve is the probe-control-plane daemon: it hosts suite
// programs across independent engine shards (one core.Engine + Supervisor
// per shard, each with its own persistent cache under -data) and exposes
// the versioned JSON-over-HTTP control API with fleet admission control.
//
// Usage:
//
//	odin-serve -shard a=json -shard b=sqlite -data /var/lib/odin -addr 127.0.0.1:9180
//	odin-ctl -addr http://127.0.0.1:9180 shards
//
// Each shard runs under a health watchdog with a recovery ladder: a wedged
// engine is restarted in place warm from its snapshot, with backoff, and
// the shard is marked dead once the restarts fail. The watchdog
// thresholds are tunable (-watchdog-interval, -gen-deadline,
// -stuck-queue-age) and the -chaos-* flags arm a one-shot injected fault
// after boot so CI can rehearse a failover against a real daemon.
//
// SIGINT/SIGTERM drain every shard supervisor (admitted work commits and
// per-shard snapshots are written, within drainTimeout) before exit, so a
// restart warm-starts each shard from its own cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"odin/internal/faultinject"
	"odin/internal/serve"
)

// drainTimeout bounds how long shutdown waits for the shards to drain.
const drainTimeout = time.Minute

// shardFlags collects repeatable -shard name=program declarations.
type shardFlags []serve.ShardSpec

func (s *shardFlags) String() string {
	var parts []string
	for _, sp := range *s {
		parts = append(parts, sp.Name+"="+sp.Program)
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, program, ok := strings.Cut(v, "=")
	if !ok || name == "" || program == "" {
		return fmt.Errorf("want name=program, got %q", v)
	}
	*s = append(*s, serve.ShardSpec{Name: name, Program: program})
	return nil
}

func main() {
	var shards shardFlags
	flag.Var(&shards, "shard", "host a shard: name=program (repeatable; program is a suite profile name)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address (port 0 = pick a free port)")
	data := flag.String("data", "", "persist root; each shard gets its own cache and snapshot under DATA/shards/<name>/")
	lcCfg := lifecycleCfg{}
	flag.DurationVar(&lcCfg.interval, "watchdog-interval", 0, "health watchdog sample interval (0 = default 500ms)")
	flag.DurationVar(&lcCfg.genDeadline, "gen-deadline", 0, "a generation running longer than this wedges the shard (0 = default 60s)")
	flag.DurationVar(&lcCfg.stuckQueueAge, "stuck-queue-age", 0, "a ticket queued longer than this wedges the shard (0 = default 30s)")
	flag.StringVar(&lcCfg.chaosSite, "chaos-site", "", "arm a one-shot injected fault at this site after boot (e.g. supervisor:commit; CI failover rehearsal)")
	flag.DurationVar(&lcCfg.chaosStall, "chaos-stall", 2*time.Second, "stall duration for the -chaos-site fault")
	flag.DurationVar(&lcCfg.chaosDelay, "chaos-delay", time.Second, "delay after listen before arming the -chaos-site fault")
	flag.Parse()

	if err := run(shards, *addr, *data, lcCfg); err != nil {
		fmt.Fprintf(os.Stderr, "odin-serve: %v\n", err)
		os.Exit(1)
	}
}

// lifecycleCfg carries the shard-lifecycle and chaos-rehearsal flags.
type lifecycleCfg struct {
	interval      time.Duration
	genDeadline   time.Duration
	stuckQueueAge time.Duration
	chaosSite     string
	chaosStall    time.Duration
	chaosDelay    time.Duration
}

func run(shards shardFlags, addr, data string, lcCfg lifecycleCfg) error {
	if len(shards) == 0 {
		return fmt.Errorf("at least one -shard name=program is required")
	}
	var inj *faultinject.Injector
	if lcCfg.chaosSite != "" {
		inj = faultinject.New(1)
		inj.SetStall(lcCfg.chaosStall)
	}
	for i := range shards {
		shards[i].Watchdog = serve.WatchdogOptions{
			Interval:      lcCfg.interval,
			GenDeadline:   lcCfg.genDeadline,
			StuckQueueAge: lcCfg.stuckQueueAge,
		}
		if inj != nil {
			shards[i].FaultHook = inj.At
		}
	}
	srv, err := serve.New(serve.Options{Shards: shards, DataDir: data})
	if err != nil {
		return err
	}
	for _, sh := range srv.Shards() {
		fmt.Fprintf(os.Stderr, "odin-serve: shard %s hosting %s, warm hits %d\n",
			sh.Name, sh.Program, srv.ShardWarmHits(sh.Name))
	}

	bound, err := srv.Start(addr)
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		srv.Close(ctx)
		return err
	}
	fmt.Fprintf(os.Stderr, "odin-serve: listening on %s\n", bound)
	if inj != nil {
		// Arm after the delay, not at boot: the boot builds must land on a
		// healthy shard so the rehearsal wedges the serving slot, mirroring
		// a mid-storm failure.
		site, stall, delay := lcCfg.chaosSite, lcCfg.chaosStall, lcCfg.chaosDelay
		time.AfterFunc(delay, func() {
			inj.Arm(faultinject.Rule{Site: site, Kind: faultinject.KindStall, Rate: 1, Times: 1})
			fmt.Fprintf(os.Stderr, "odin-serve: chaos fault armed at %s (stall %v, one shot)\n", site, stall)
		})
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigCh
	fmt.Fprintf(os.Stderr, "odin-serve: %v, draining %d shards\n", sig, len(shards))
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintf(os.Stderr, "odin-serve: drained, snapshots written\n")
	return nil
}
