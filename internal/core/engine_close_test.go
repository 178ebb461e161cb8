package core

import (
	"path/filepath"
	"sync"
	"testing"

	"odin/internal/irtext"
)

// TestEngineCloseIdempotent: Close must be safe to call repeatedly and from
// many goroutines — defer-happy callers and a supervisor tearing down in
// parallel must not close the store or write the snapshot twice.
func TestEngineCloseIdempotent(t *testing.T) {
	m := irtext.MustParse("m", manyFuncSrc(2))
	dir := t.TempDir()
	e, err := New(m, Options{Variant: VariantMax, CacheDir: dir, SnapshotPath: filepath.Join(dir, "engine.snap")})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Close(); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()

	// An engine with nothing to flush closes cleanly too.
	e2, err := New(irtext.MustParse("m2", manyFuncSrc(2)), Options{Variant: VariantMax})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil || e2.Close() != nil {
		t.Fatalf("close without persistence: %v", err)
	}
}

// TestEngineCloseDuringRebuild closes the engine while rebuilds are in
// flight: the rebuilds must complete (or fail cleanly), and Close must not
// panic or race with the commit path.
func TestEngineCloseDuringRebuild(t *testing.T) {
	m := irtext.MustParse("m", manyFuncSrc(8))
	e, err := New(m, Options{Variant: VariantMax, Workers: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			e.MarkAllDirty()
			if _, _, err := e.BuildAll(); err != nil {
				t.Errorf("rebuild during close: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		if err := e.Close(); err != nil {
			t.Errorf("close during rebuild: %v", err)
		}
	}()
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
}
