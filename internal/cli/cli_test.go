package cli

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"odin/internal/core"
	"odin/internal/telemetry"
)

func TestLoadModule(t *testing.T) {
	file := filepath.Join(t.TempDir(), "tiny.ir")
	src := "func @main() -> i64 {\nentry:\n  ret i64 7\n}\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, program, file, wantName string
	}{
		{"file wins over program", "json", file, file},
		{"suite program", "json", "", "json"},
		{"demo", "demo", "", "demo"},
	} {
		m, err := LoadModule(tc.program, tc.file)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if m.Name != tc.wantName || len(m.Funcs) == 0 {
			t.Fatalf("%s: module %q with %d funcs, want %q", tc.name, m.Name, len(m.Funcs), tc.wantName)
		}
	}
	if m, err := LoadModule("no-such-program", ""); err == nil || !strings.Contains(err.Error(), `unknown program "no-such-program"`) {
		t.Fatalf("unknown program: module %v, error %v", m, err)
	}
	if _, err := LoadModule("json", filepath.Join(t.TempDir(), "missing.ir")); err == nil {
		t.Fatal("missing file: no error")
	}
}

// TestEngineFlagsOptions parses the four engine flags and checks that
// Options sets exactly their four fields and leaves the caller's alone.
func TestEngineFlagsOptions(t *testing.T) {
	saved := flag.CommandLine
	defer func() { flag.CommandLine = saved }()
	flag.CommandLine = flag.NewFlagSet("odin-test", flag.ContinueOnError)
	f := EngineFlags()
	if err := flag.CommandLine.Parse([]string{
		"-cache-dir", "D", "-snapshot", "S", "-rebuild-timeout", "3s", "-metrics-addr", "127.0.0.1:0",
	}); err != nil {
		t.Fatal(err)
	}

	hook := func(string) error { return nil }
	in := core.Options{
		Variant: core.VariantMax, ExtraBuiltins: []string{"__hit"}, Workers: 3,
		FaultHook: hook, Verify: core.VerifyAll, AdoptModule: true,
	}
	got := f.Options(in)
	if got.CacheDir != "D" || got.SnapshotPath != "S" || got.RebuildTimeout != 3*time.Second || got.Telemetry == nil {
		t.Fatalf("engine fields = %q, %q, %v, %v", got.CacheDir, got.SnapshotPath, got.RebuildTimeout, got.Telemetry)
	}
	if got.FaultHook == nil {
		t.Fatal("FaultHook dropped")
	}
	got.CacheDir, got.SnapshotPath, got.RebuildTimeout, got.Telemetry = "", "", 0, nil
	got.FaultHook, in.FaultHook = nil, nil
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("other fields changed:\n got %+v\nwant %+v", got, in)
	}

	// Without -metrics-addr no registry is made.
	if o := (&Flags{CacheDir: "D"}).Options(core.Options{}); o.Telemetry != nil {
		t.Fatal("registry made without -metrics-addr")
	}
}

// serveStderr runs f.Serve with stderr captured and returns what it printed.
func serveStderr(t *testing.T, f *Flags) string {
	t.Helper()
	errFile, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = errFile
	stop, err := f.Serve(telemetry.NewRegistry(), func() any { return nil })
	os.Stderr = saved
	if err != nil {
		t.Fatalf("Serve(%q): %v", f.MetricsAddr, err)
	}
	stop()
	out, _ := os.ReadFile(errFile.Name())
	return string(out)
}

// TestServe: without -metrics-addr Serve listens on nothing and prints
// nothing; with it, it prints the bound address in the form the metrics
// smoke greps.
func TestServe(t *testing.T) {
	if out := serveStderr(t, &Flags{}); out != "" {
		t.Fatalf("Serve without -metrics-addr printed %q", out)
	}
	if out := serveStderr(t, &Flags{MetricsAddr: "127.0.0.1:0"}); !strings.HasPrefix(out, "telemetry: serving on 127.0.0.1:") {
		t.Fatalf("Serve on 127.0.0.1:0 printed %q", out)
	}
}
