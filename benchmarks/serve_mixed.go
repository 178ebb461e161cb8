package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"odin/internal/persist"
	"odin/internal/prng"
	"odin/internal/serve"
)

// servePrograms are the two shards: sqlite's huge fragment makes s0's
// generations expensive, json's tiny functions make s1's cheap, so a shared
// lock or gate shows as s1 (and the reads) slowing under s0's writes.
var servePrograms = []string{"sqlite", "json"}

var serveShards = []string{"s0", "s1"}

// traceBlock is how many requests a client sends between flips of its
// tracer in a traced run.
const traceBlock = 64

// daemon is one booted control plane on loopback.
type daemon struct {
	srv  *serve.Server
	dir  string
	base string
	boot time.Duration
}

func bootDaemon(r *run) (*daemon, error) {
	dir, err := r.tempDir("serve-*")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	srv, err := serve.New(serve.Options{
		Shards: []serve.ShardSpec{
			{Name: serveShards[0], Program: servePrograms[0]},
			{Name: serveShards[1], Program: servePrograms[1]},
		},
		DataDir: dir,
		// Generous enough never to shed: the workload measures the request
		// path, not bucket shaping, and a shed request is a failed op.
		Admission: serve.AdmissionOptions{TenantRPS: 1e6, TenantBurst: 1e6},
	})
	if err != nil {
		return nil, err
	}
	boot := time.Since(t0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	return &daemon{srv: srv, dir: dir, base: "http://" + addr, boot: boot}, nil
}

func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Close(ctx)
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// tenant is one closed-loop client: its own tenant name, its own keep-alive
// connection, and a script that walks add-or-enable → change → remove on a
// seeded function, with a read in every fourth slot. The script is also the
// ledger the daemon's final state is held to.
type tenant struct {
	c     *serve.Client
	k     int
	rng   *prng.RNG
	funcs [][]string         // per shard
	decks []*deck            // per shard: every function in turn
	ids   []map[string]int64 // per shard: function → this tenant's probe
	tr    *tracer

	shard, step int
	fn          string
	motifs      int
	reads       int
	lastGen     []uint64
	active      []map[string]bool // per shard: functions whose probe is on

	// Filled in the measured phase.
	primary, alt [2]sample // by shard; by read endpoint
	coalesced    sample
	ops          int
	arms         arms
}

func newTenant(d *daemon, k int, seed uint64, funcs [][]string) *tenant {
	t := &tenant{
		c: &serve.Client{
			Base:   d.base,
			Tenant: fmt.Sprintf("tenant-%d", k),
			HTTP: &http.Client{
				Transport: &http.Transport{MaxIdleConnsPerHost: 1},
				Timeout:   60 * time.Second,
			},
		},
		k: k, rng: prng.NewRNG(seed*977 + uint64(k) + 1), funcs: funcs,
		lastGen: make([]uint64, len(serveShards)),
	}
	for range serveShards {
		t.ids = append(t.ids, map[string]int64{})
		t.decks = append(t.decks, newDeck(len(funcs[len(t.decks)])))
		t.active = append(t.active, map[string]bool{})
	}
	return t
}

// mutate sends the next request of the motif and checks its reply.
func (t *tenant) mutate() (serve.ProbeResult, error) {
	if t.step == 0 {
		// Even tenants stay on s0; odd ones alternate, so s0 always has a
		// writer and s1 sees writes only part of the time.
		t.shard = 0
		if t.k%2 == 1 {
			t.shard = t.motifs % len(serveShards)
		}
		t.motifs++
		t.fn = t.funcs[t.shard][t.decks[t.shard].deal(t.rng, 1)[0]]
	}
	shard := serveShards[t.shard]
	id, known := t.ids[t.shard][t.fn]
	var res serve.ProbeResult
	var err error
	switch {
	case t.step == 0 && !known:
		s := t.tr.begin(spClientAdd)
		res, err = t.c.AddProbe(shard, serve.ProbeSpec{Func: t.fn})
		t.tr.end(s)
		t.ids[t.shard][t.fn] = res.ID
	default:
		action := [...]string{"enable", "change", "remove"}[t.step]
		s := t.tr.begin(spClientAction)
		res, err = t.c.ProbeAction(shard, id, action)
		t.tr.end(s)
	}
	if err != nil {
		return res, fmt.Errorf("%s %s step %d on @%s: %w", t.c.Tenant, shard, t.step, t.fn, err)
	}
	if res.Gen <= t.lastGen[t.shard] {
		return res, fmt.Errorf("%s %s: generation %d does not advance past %d", t.c.Tenant, shard, res.Gen, t.lastGen[t.shard])
	}
	t.lastGen[t.shard] = res.Gen
	t.active[t.shard][t.fn] = t.step < 2
	t.step = (t.step + 1) % 3
	return res, nil
}

// read sends one of the two read requests and returns which.
func (t *tenant) read() (int, error) {
	kind := t.reads % 2
	t.reads++
	var err error
	if kind == 0 {
		s := t.tr.begin(spClientFunctions)
		_, err = t.c.Functions(serveShards[t.shard])
		t.tr.end(s)
	} else {
		s := t.tr.begin(spClientFleet)
		_, err = t.c.Fleet()
		t.tr.end(s)
	}
	return kind, err
}

// drive sends n requests; timed ones are recorded as ops.
func (t *tenant) drive(n int, timed bool) error {
	for i := 0; i < n; i++ {
		t.tr.record(timed && i/traceBlock%2 == 0)
		t.tr.setOp(t.k*n+i, t.shard)
		t0 := time.Now()
		if i%4 == 3 {
			s := t.tr.begin(spAltOp)
			kind, err := t.read()
			t.tr.end(s)
			if err != nil {
				return err
			}
			if timed {
				t.alt[kind].add(time.Since(t0))
			}
			continue
		}
		s := t.tr.begin(spOp)
		res, err := t.mutate()
		t.tr.end(s)
		if err != nil {
			return err
		}
		if timed {
			d := time.Since(t0)
			t.primary[t.shard].add(d)
			t.coalesced = append(t.coalesced, float64(res.Coalesced))
			t.ops++
			t.arms.add(t.tr.recording(), d)
		}
	}
	return nil
}

// driveAll runs every tenant concurrently and waits for all of them.
func driveAll(ts []*tenant, n int, timed bool) error {
	var wg sync.WaitGroup
	errs := make([]error, len(ts))
	for i, t := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = t.drive(n, timed)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupServe is one set-up repetition: cold-boot both shards into an empty
// data directory, start listening, connect the tenants and warm them up.
func setupServe(r *run, nClients int) (*daemon, []*tenant, error) {
	d, err := bootDaemon(r)
	if err != nil {
		return nil, nil, err
	}
	probe := &serve.Client{Base: d.base}
	funcs := make([][]string, len(serveShards))
	for i, sh := range serveShards {
		if funcs[i], err = probe.Functions(sh); err == nil && len(funcs[i]) == 0 {
			err = fmt.Errorf("shard %s lists no functions", sh)
		}
		if err != nil {
			d.close()
			return nil, nil, err
		}
	}
	ts := make([]*tenant, nClients)
	for k := range ts {
		ts[k] = newTenant(d, k, r.cfg.seed, funcs)
	}
	if err := driveAll(ts, r.sz.serveWarm, false); err != nil {
		d.close()
		return nil, nil, err
	}
	return d, ts, nil
}

func serveMixed(r *run) (*outcome, error) {
	out, err := r.load(servePrograms)
	if err != nil {
		return nil, err
	}

	// One client per core, at most four: the load comes from this process
	// and must not outnumber the cores it shares with the daemon.
	nClients := min(runtime.NumCPU(), 4)
	var d *daemon
	var ts []*tenant
	var boots sample
	err = out.repeatSetup(r.sz.serveSetupReps, func() error { return d.close() }, func() error {
		if d, ts, err = setupServe(r, nClients); err == nil {
			boots.add(d.boot)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	for _, t := range ts {
		t.tr = r.tracer(r.sz.serveRequests * 2)
	}

	runtime.GC()
	t0 := time.Now()
	err = driveAll(ts, r.sz.serveRequests, true)
	out.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}

	// The clock has stopped. Collect the tenants' samples, then hold the
	// daemon's ledger to their scripts.
	out.primary = make([]sample, len(serveShards))
	out.alt = make([]sample, 2)
	var coalesced sample
	activeFns := make([][]string, len(serveShards))
	for _, t := range ts {
		for i := range serveShards {
			out.primary[i] = append(out.primary[i], t.primary[i]...)
			for fn, on := range t.active[i] {
				if on {
					activeFns[i] = append(activeFns[i], fn)
				}
			}
		}
		for i := range out.alt {
			out.alt[i] = append(out.alt[i], t.alt[i]...)
		}
		coalesced = append(coalesced, t.coalesced...)
		out.ops += t.ops
		out.overhead.merge(t.arms)
		t.c.HTTP.CloseIdleConnections()
	}
	r.attempted = len(ts) * r.sz.serveRequests

	admin := &serve.Client{Base: d.base}
	fleet, err := admin.Fleet()
	if err != nil {
		return nil, err
	}
	ms := r.ms
	var gens, coal, full, shed, fallbacks, written, journal float64
	for i, sh := range fleet.Shards {
		if want := len(activeFns[i]); sh.ActiveProbes != want {
			r.fail(1, "shard %s holds %d active probes, the client scripts left %d", sh.Name, sh.ActiveProbes, want)
		}
		gens += float64(sh.Supervisor.Generations)
		coal += float64(sh.Supervisor.CoalescedRequests)
		full += float64(sh.Supervisor.RejectedQueueFull)
		if sh.Persist != nil {
			fallbacks += float64(sh.Persist.Fallbacks)
			written += float64(sh.Persist.BytesWritten)
		}
		if paths, err := persist.ShardLayout(d.dir, sh.Name); err == nil {
			if fi, err := os.Stat(paths.JournalPath); err == nil {
				journal += float64(fi.Size())
			}
		}
	}
	for _, tn := range fleet.Tenants {
		shed += float64(tn.Shed)
	}
	if shed > 0 {
		r.fail(int(shed), "admission shed %v requests", shed)
	}
	prom, err := admin.Metrics()
	if err != nil {
		return nil, err
	}
	ms.set("serve.parked", promSum(prom, serve.MetricParked))
	ms.set("serve.boot_us", boots.median())
	ms.set("serve.coalesced_mean", coalesced.mean())
	ms.set("serve.shed", shed)
	ms.set("serve.journal_bytes", journal)
	ms.set("supervisor.coalesced_mean", ratio(coal, gens))
	ms.set("supervisor.generations", gens)
	ms.set("supervisor.queue_full", full)
	ms.set("persist.fallbacks", fallbacks)
	ms.set("persist.bytes_written", written/float64(out.ops))

	// A mirror engine per shard, given the probe set the scripts left
	// enabled, must compute what the interpreter computes; its cycles are
	// what the daemon's tenants would pay to run the instrumented target.
	for i, p := range out.programs {
		sort.Strings(activeFns[i])
		exe, err := coldImage(p, activeFns[i])
		if err != nil {
			return nil, fmt.Errorf("%s mirror: %w", p.name, err)
		}
		cy, err := p.replay(exe)
		if err != nil {
			r.fail(1, "mirror of shard %s: %v", serveShards[i], err)
		}
		out.cycles += cy
		out.execs += int64(len(p.inputs))
	}
	return out, nil
}

// promSum adds up every sample of one family in a Prometheus exposition.
func promSum(text, family string) float64 {
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			v, _ := strconv.ParseFloat(line[i+1:], 64)
			total += v
		}
	}
	return total
}
