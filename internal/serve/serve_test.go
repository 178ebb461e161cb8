package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"odin/internal/ir"
	"odin/internal/irtext"
)

// testModule builds a small module of n independent noinline functions plus
// a main that calls them all — the same shape the core supervisor tests
// storm against.
func testModule(t *testing.T, n int) *ir.Module {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `
func @f%d(%%x: i64) -> i64 noinline {
entry:
  %%a = mul i64 %%x, %d
  %%b = add i64 %%a, %d
  ret i64 %%b
}
`, i, i+3, i*7+1)
	}
	sb.WriteString("func @main(%x: i64) -> i64 {\nentry:\n")
	fmt.Fprintf(&sb, "  %%s0 = add i64 %%x, 0\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  %%r%d = call i64 @f%d(i64 %%x)\n", i, i)
		fmt.Fprintf(&sb, "  %%s%d = add i64 %%s%d, %%r%d\n", i+1, i, i)
	}
	fmt.Fprintf(&sb, "  ret i64 %%s%d\n}\n", n)
	return irtext.MustParse("m", sb.String())
}

// newTestServer boots a server over httptest and returns a client bound to
// the given tenant.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, func(tenant string) *Client) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return srv, hs, func(tenant string) *Client {
		return &Client{Base: hs.URL, Tenant: tenant}
	}
}

func TestServeAPIBasics(t *testing.T) {
	_, _, client := newTestServer(t, Options{
		Shards: []ShardSpec{
			{Name: "alpha", Module: testModule(t, 6)},
			{Name: "beta", Module: testModule(t, 4)},
		},
	})
	c := client("acme")

	shards, err := c.Shards()
	if err != nil {
		t.Fatalf("Shards: %v", err)
	}
	if len(shards) != 2 || shards[0].Name != "alpha" || shards[1].Name != "beta" {
		t.Fatalf("Shards = %+v", shards)
	}

	// Add, toggle, and re-instrument a counter probe.
	res, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatalf("AddProbe: %v", err)
	}
	if res.Gen == 0 {
		t.Fatalf("AddProbe result = %+v", res)
	}
	for _, action := range []string{"remove", "enable", "change"} {
		if _, err := c.ProbeAction("alpha", res.ID, action); err != nil {
			t.Fatalf("ProbeAction %s: %v", action, err)
		}
	}
	if _, err := c.Sync("alpha"); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// The fleet snapshot sees the active probe and per-tenant admission.
	snap, err := c.Fleet()
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("Fleet shards = %d", len(snap.Shards))
	}
	var alpha ShardStatus
	for _, sh := range snap.Shards {
		if sh.Name == "alpha" {
			alpha = sh
		}
	}
	if alpha.ActiveProbes != 1 {
		t.Errorf("alpha active probes = %d, want 1", alpha.ActiveProbes)
	}
	if alpha.Supervisor.Generations == 0 || alpha.Supervisor.Breaker != "closed" {
		t.Errorf("alpha supervisor stats = %+v", alpha.Supervisor)
	}
	found := false
	for _, ts := range snap.Tenants {
		if ts.Tenant == "acme" && ts.Admitted >= 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("tenant ledger missing acme: %+v", snap.Tenants)
	}

	// Aggregated metrics carry per-shard labels plus fleet counters.
	text, err := c.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{`shard="alpha"`, `shard="beta"`, `shard="fleet"`, "odin_serve_admitted_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

func TestServeAPIErrors(t *testing.T) {
	_, hs, client := newTestServer(t, Options{
		Shards: []ShardSpec{{Name: "alpha", Module: testModule(t, 4)}},
	})
	c := client("acme")

	// Unknown shard.
	_, err := c.AddProbe("nope", ProbeSpec{Func: "f0"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown shard: %v", err)
	}
	// Malformed spec.
	if _, err := c.AddProbe("alpha", ProbeSpec{}); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("empty spec: %v", err)
	}
	if _, err := c.AddProbe("alpha", ProbeSpec{Func: "f0", Kind: "exotic"}); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("bad kind: %v", err)
	}
	// Unknown action.
	res, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProbeAction("alpha", res.ID, "explode"); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("bad action: %v", err)
	}
	// Tenant scoping: another tenant cannot touch acme's probe.
	other := client("rival")
	if _, err := other.ProbeAction("alpha", res.ID, "remove"); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("foreign probe action: %v", err)
	}
	// A non-integer probe ID 400s rather than panicking the mux.
	resp, err := http.Post(hs.URL+"/v1/shards/alpha/probes/xyz/remove", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-integer id: %d", resp.StatusCode)
	}
}

// TestServePoisonQuarantine drives a poison probe through the API: its add
// must resolve 422 with the quarantine verdict, and re-enabling it must
// fail fast the same way.
func TestServePoisonQuarantine(t *testing.T) {
	_, _, client := newTestServer(t, Options{
		Shards: []ShardSpec{{Name: "alpha", Module: testModule(t, 4)}},
		// Keep the tenant failure breaker out of this test's way.
		Admission: AdmissionOptions{FailThreshold: -1},
	})
	c := client("acme")
	_, err := c.AddProbe("alpha", ProbeSpec{Func: "f1", Kind: KindPoison})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusUnprocessableEntity || ae.Code != "quarantined" {
		t.Fatalf("poison add: %v", err)
	}
	// The shard survives: a healthy probe still commits.
	if _, err := c.AddProbe("alpha", ProbeSpec{Func: "f2"}); err != nil {
		t.Fatalf("healthy add after poison: %v", err)
	}
}

// TestServeWarmStart closes a persistent 2-shard server and reboots it on
// the same data dir: both shards must warm-start (boot-build persist hits)
// independently.
func TestServeWarmStart(t *testing.T) {
	dir := t.TempDir()
	mkOpts := func() Options {
		return Options{
			DataDir: dir,
			Shards: []ShardSpec{
				{Name: "alpha", Module: testModule(t, 6)},
				{Name: "beta", Module: testModule(t, 4)},
			},
		}
	}
	srv, err := New(mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("first close: %v", err)
	}

	srv2, err := New(mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close(ctx)
	for _, name := range []string{"alpha", "beta"} {
		if hits := srv2.ShardWarmHits(name); hits == 0 {
			t.Errorf("shard %s: no warm-start hits on reboot", name)
		}
	}
}

// TestServeSecondTenantCacheHit: a counter probe's compiled bytes do not
// depend on which probe asked for it. Tenant a adds and removes a counter on
// f1, then tenant b adds one on f1: that rebuild must be served from the
// fragment cache, compiling nothing.
func TestServeSecondTenantCacheHit(t *testing.T) {
	srv, _, client := newTestServer(t, Options{
		Shards: []ShardSpec{{Name: "alpha", Module: testModule(t, 4)}},
	})
	a, b := client("a"), client("b")
	res, err := a.AddProbe("alpha", ProbeSpec{Func: "f1"})
	if err != nil {
		t.Fatalf("tenant a add: %v", err)
	}
	if _, err := a.ProbeAction("alpha", res.ID, "remove"); err != nil {
		t.Fatalf("tenant a remove: %v", err)
	}
	if _, err := b.AddProbe("alpha", ProbeSpec{Func: "f1"}); err != nil {
		t.Fatalf("tenant b add: %v", err)
	}
	last := srv.byName["alpha"].current().eng.Snapshot().LastRebuild
	if last == nil || last.CacheHits != 1 || last.FuncsCompiled != 0 {
		t.Fatalf("tenant b's rebuild = %+v, want 1 cache hit and 0 functions compiled", last)
	}
}
