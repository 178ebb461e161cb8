// Package cli is what the engine-bearing commands share: the four engine
// flags and the core.Options and telemetry wiring they feed, the
// program-or-file module loader, and the signal-time flush of an engine's
// persistent state.
package cli

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/irtext"
	"odin/internal/progen"
	"odin/internal/telemetry"
)

// Flags holds the engine flags' values after flag.Parse.
type Flags struct {
	CacheDir       string
	Snapshot       string
	RebuildTimeout time.Duration
	MetricsAddr    string
}

// EngineFlags registers -cache-dir, -snapshot, -rebuild-timeout and
// -metrics-addr on the command line.
func EngineFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.CacheDir, "cache-dir", "", "persistent artifact cache directory (warm-starts fragment compiles across runs)")
	flag.StringVar(&f.Snapshot, "snapshot", "", "engine state snapshot file (restored at startup, rewritten at exit)")
	flag.DurationVar(&f.RebuildTimeout, "rebuild-timeout", 0, "deadline for one rebuild (0 = none)")
	flag.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live telemetry (rebuild metrics, per-probe hit counts, traces) on this host:port (port 0 = pick a free port)")
	return f
}

// Options returns o with CacheDir, SnapshotPath and RebuildTimeout set from
// the flags, and with a fresh Telemetry registry when -metrics-addr is set.
func (f *Flags) Options(o core.Options) core.Options {
	o.CacheDir = f.CacheDir
	o.SnapshotPath = f.Snapshot
	o.RebuildTimeout = f.RebuildTimeout
	if f.MetricsAddr != "" {
		o.Telemetry = telemetry.NewRegistry()
	}
	return o
}

// Serve starts the telemetry endpoint on -metrics-addr over reg, with status
// answering /debug/odin, and prints the bound address on stderr as
// "telemetry: serving on HOST:PORT". Without -metrics-addr it starts
// nothing. The returned stop closes the endpoint.
func (f *Flags) Serve(reg *telemetry.Registry, status func() any) (stop func(), err error) {
	if f.MetricsAddr == "" {
		return func() {}, nil
	}
	srv, err := telemetry.Serve(f.MetricsAddr, reg, status)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "telemetry: serving on %s\n", srv.Addr())
	return func() { srv.Close() }, nil
}

// LoadModule reads the textual-IR file when file is set, and otherwise
// generates program: a suite program name or "demo" (the planted-bug
// target). The module is named after the file or the program.
func LoadModule(program, file string) (*ir.Module, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return irtext.Parse(file, string(src))
	}
	if program == "demo" {
		return progen.Demo().Generate(), nil
	}
	p, ok := progen.ByName(program)
	if !ok {
		return nil, fmt.Errorf("unknown program %q", program)
	}
	return p.Generate(), nil
}

// CloseOnSignal runs cleanup when the process receives SIGINT or SIGTERM —
// flushing the persistent artifact store and state snapshot that the
// normal deferred Close would have written — then exits with the
// conventional 128+signal status. The returned function releases the
// handler so the normal exit path leaves no goroutine claiming signals.
func CloseOnSignal(prog string, cleanup func() error) (release func()) {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "%s: %v, flushing persistence\n", prog, sig)
			if err := cleanup(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: close: %v\n", prog, err)
			}
			code := 130 // 128 + SIGINT
			if sig == syscall.SIGTERM {
				code = 143
			}
			os.Exit(code)
		case <-done:
		}
	}()
	return func() { signal.Stop(sigCh); close(done) }
}
