package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"odin/internal/mir"
	"odin/internal/obj"
	"odin/internal/telemetry"
)

const testBuildID = "test-build-1"

// journalRecSize is one framed journal record on disk.
const journalRecSize = logHeaderSize + journalPayloadSize

func testOptions() Options {
	return Options{BuildID: testBuildID, Telemetry: telemetry.NewRegistry()}
}

func testEntry(key uint64) *Entry {
	return &Entry{
		Key: key,
		Object: &obj.Object{
			Name: fmt.Sprintf("frag%d", key),
			Funcs: []obj.FuncSym{{
				Name:    fmt.Sprintf("f%d", key),
				Linkage: mir.Global,
				Code: []mir.Inst{
					{Op: mir.MovImm, Rd: 1, Imm: int64(key)},
					{Op: mir.Ret, Rs1: 1},
				},
				NumBlocks:   1,
				BlockStarts: []int{0},
			}},
		},
		Level:      2,
		FuncHashes: map[string]uint64{fmt.Sprintf("f%d", key): key * 31},
	}
}

func mustOpen(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	s, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	if s.ReadOnly() {
		t.Fatal("first opener should hold the writer lock")
	}
	want := testEntry(7)
	if err := s.Put(7, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(7)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got == nil || !reflect.DeepEqual(got.Object, want.Object) ||
		got.Level != want.Level || !reflect.DeepEqual(got.FuncHashes, want.FuncHashes) {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
	if e, err := s.Get(8); e != nil || err != nil {
		t.Fatalf("absent key: got (%v, %v), want (nil, nil)", e, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	for k := uint64(1); k <= 5; k++ {
		if err := s.Put(k, testEntry(k)); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := mustOpen(t, dir, testOptions())
	if s2.Len() != 5 {
		t.Fatalf("reopened index has %d entries, want 5", s2.Len())
	}
	for k := uint64(1); k <= 5; k++ {
		e, err := s2.Get(k)
		if err != nil || e == nil {
			t.Fatalf("Get(%d) after reopen: (%v, %v)", k, e, err)
		}
	}
}

// TestCorruptionMatrix is the blob-level corruption matrix: each mutilation
// of a published entry must classify as corrupt or skewed, evict the entry,
// count it, and serve a plain miss afterwards — never a decode of bad bytes.
func TestCorruptionMatrix(t *testing.T) {
	cases := []struct {
		name     string
		mutilate func(path string) error
		wantErr  error
	}{
		{"truncate-half", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)/2], 0o644)
		}, ErrCorrupt},
		{"zero-length", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}, ErrCorrupt},
		{"bit-flip-payload", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0x40
			return os.WriteFile(p, data, 0o644)
		}, ErrCorrupt},
		{"bit-flip-magic", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[0] ^= 0x01
			return os.WriteFile(p, data, 0o644)
		}, ErrCorrupt},
		{"version-skew", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[11]++ // schema uint32 low byte
			return os.WriteFile(p, data, 0o644)
		}, ErrSchemaSkew},
		{"half-write", func(p string) error {
			// A write torn mid-payload with trailing garbage appended:
			// length matches but checksum cannot.
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for i := len(data) - 8; i < len(data); i++ {
				data[i] ^= 0xAA
			}
			return os.WriteFile(p, data, 0o644)
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, testOptions())
			if err := s.Put(3, testEntry(3)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			path := s.entryPath(3)
			if err := tc.mutilate(path); err != nil {
				t.Fatalf("mutilate: %v", err)
			}
			e, err := s.Get(3)
			if e != nil {
				t.Fatalf("mutilated entry was served: %+v", e)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Get error = %v, want %v", err, tc.wantErr)
			}
			if got := s.Stats().CorruptEvicted; got != 1 {
				t.Fatalf("corrupt_evicted = %d, want 1", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not evicted from disk: %v", err)
			}
			// Detection degrades to a plain miss thereafter.
			if e, err := s.Get(3); e != nil || err != nil {
				t.Fatalf("post-eviction Get: (%v, %v), want (nil, nil)", e, err)
			}
		})
	}
}

func TestBuildIDSkewEvicts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	if err := s.Put(1, testEntry(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A different toolchain reopening the same directory owns it (writer)
	// and clears the skewed entries at Open via the manifest check.
	s2 := mustOpen(t, dir, Options{BuildID: "other-build"})
	if s2.Len() != 0 {
		t.Fatalf("skewed store reopened with %d entries, want 0", s2.Len())
	}
	if e, err := s2.Get(1); e != nil || err != nil {
		t.Fatalf("Get after skew clear: (%v, %v)", e, err)
	}
}

func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	for k := uint64(1); k <= 3; k++ {
		if err := s.Put(k, testEntry(k)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate kill -9 mid-append: a partial record at the tail.
	jpath := filepath.Join(dir, "journal")
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{journalOpPut, 0xde, 0xad})
	f.Close()

	s2 := mustOpen(t, dir, testOptions())
	if s2.Len() != 3 {
		t.Fatalf("torn-tail replay found %d entries, want 3", s2.Len())
	}
	// The writer truncated the tail; appends continue cleanly.
	if err := s2.Put(4, testEntry(4)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if fi, err := os.Stat(jpath); err != nil || fi.Size()%journalRecSize != 0 {
		t.Fatalf("journal not truncated to record boundary: size %d", fi.Size())
	}
}

func TestJournalGarbageRebuildsFromScan(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	for k := uint64(1); k <= 3; k++ {
		if err := s.Put(k, testEntry(k)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "journal"), []byte("not a journal, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, testOptions())
	if s2.Len() != 3 {
		t.Fatalf("scan recovery found %d entries, want 3", s2.Len())
	}
}

// TestJournalOldFramingReseeds: a journal written before the store journal
// moved onto the Log framing — bare 21-byte [op][key][size][crc] records —
// must read as a torn tail at offset 0, fall back to the directory scan, and
// come back re-seeded in the current framing.
func TestJournalOldFramingReseeds(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	var old []byte
	for k := uint64(1); k <= 3; k++ {
		if err := s.Put(k<<56|k, testEntry(k<<56|k)); err != nil {
			t.Fatal(err)
		}
		var rec [21]byte
		rec[0] = journalOpPut
		binary.BigEndian.PutUint64(rec[1:9], k<<56|k)
		binary.BigEndian.PutUint64(rec[9:17], 100)
		binary.BigEndian.PutUint32(rec[17:21], crc32.ChecksumIEEE(rec[:17]))
		old = append(old, rec[:]...)
	}
	s.Close()
	jpath := filepath.Join(dir, "journal")
	if err := os.WriteFile(jpath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if index, goodLen, err := replayJournal(jpath); err != nil || len(index) != 0 || goodLen != 0 {
		t.Fatalf("old-framing replay = %d entries, good length %d, %v; want a torn tail at 0", len(index), goodLen, err)
	}

	s2 := mustOpen(t, dir, testOptions())
	if s2.Len() != 3 {
		t.Fatalf("scan recovery found %d entries, want 3", s2.Len())
	}
	if e, err := s2.Get(1<<56 | 1); err != nil || e == nil {
		t.Fatalf("Get after recovery: (%v, %v)", e, err)
	}
	s2.Close()
	index, goodLen, err := replayJournal(jpath)
	if err != nil || len(index) != 3 || goodLen != 3*journalRecSize {
		t.Fatalf("re-seeded journal = %d entries, good length %d, %v; want 3 in %d bytes", len(index), goodLen, err, 3*journalRecSize)
	}
	if fi, err := os.Stat(jpath); err != nil || fi.Size() != goodLen {
		t.Fatalf("re-seeded journal keeps old bytes: size %d, good length %d", fi.Size(), goodLen)
	}
}

func TestAbandonedTempSwept(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	if err := s.Put(1, testEntry(1)); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(s.entryPath(1))
	tmp := filepath.Join(shard, tempPattern+"abandoned-12345")
	if err := os.WriteFile(tmp, []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()
	mustOpen(t, dir, testOptions())
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("abandoned temp file survived reopen: %v", err)
	}
}

func TestSecondOpenerDegradesReadOnly(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, testOptions())
	if err := w.Put(1, testEntry(1)); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, testOptions())
	if !r.ReadOnly() {
		t.Fatal("second opener should degrade to read-only")
	}
	if e, err := r.Get(1); err != nil || e == nil {
		t.Fatalf("read-only Get: (%v, %v)", e, err)
	}
	if err := r.Put(2, testEntry(2)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put error = %v, want ErrReadOnly", err)
	}
	if r.Stats().Fallbacks == 0 {
		t.Fatal("read-only Put should count a fallback")
	}
	// Writer lock is released on Close; a later opener becomes the writer.
	w.Close()
	r.Close()
	w2 := mustOpen(t, dir, testOptions())
	if w2.ReadOnly() {
		t.Fatal("opener after writer Close should win the lock")
	}
}

func TestClosedStore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed store: %v", err)
	}
	if err := s.Put(1, testEntry(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed store: %v", err)
	}
}

func TestFaultSitesDegrade(t *testing.T) {
	injected := errors.New("injected")
	t.Run("open", func(t *testing.T) {
		o := testOptions()
		o.FaultHook = func(site string) error {
			if site == SiteOpen {
				return injected
			}
			return nil
		}
		if _, err := Open(t.TempDir(), o); !errors.Is(err, injected) {
			t.Fatalf("Open with fault: %v", err)
		}
	})
	t.Run("load-store", func(t *testing.T) {
		arm := ""
		o := testOptions()
		o.FaultHook = func(site string) error {
			if site == arm {
				return injected
			}
			return nil
		}
		s := mustOpen(t, t.TempDir(), o)
		arm = SiteStore
		if err := s.Put(1, testEntry(1)); !errors.Is(err, injected) {
			t.Fatalf("Put with fault: %v", err)
		}
		arm = ""
		if err := s.Put(1, testEntry(1)); err != nil {
			t.Fatalf("Put after fault cleared: %v", err)
		}
		arm = SiteLoad
		if e, err := s.Get(1); e != nil || !errors.Is(err, injected) {
			t.Fatalf("Get with fault: (%v, %v)", e, err)
		}
		arm = ""
		if e, err := s.Get(1); err != nil || e == nil {
			t.Fatalf("Get after fault cleared: (%v, %v)", e, err)
		}
		if s.Stats().Fallbacks != 2 {
			t.Fatalf("fallbacks = %d, want 2", s.Stats().Fallbacks)
		}
	})
	t.Run("panic-hook-isolated", func(t *testing.T) {
		o := testOptions()
		o.FaultHook = func(site string) error {
			if site == SiteLoad {
				panic("injected panic")
			}
			return nil
		}
		s := mustOpen(t, t.TempDir(), o)
		if err := s.Put(1, testEntry(1)); err != nil {
			t.Fatal(err)
		}
		if e, err := s.Get(1); e != nil || err == nil {
			t.Fatalf("panicking hook should fail the load: (%v, %v)", e, err)
		}
	})
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2-longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2-longer" {
		t.Fatalf("read back %q, %v", data, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.snap")
	o := testOptions()
	want := &EngineState{
		ModuleHash: 0xfeed,
		Variant:    "callgraph",
		OptLevel:   2,
		Fragments:  4,
		Hashes:     map[int]uint64{0: 1, 1: 2},
		FuncMeta:   map[int]FuncMeta{0: {Level: 2, FuncHashes: map[string]uint64{"f": 9}}},
		Quarantine: map[int][]string{3: {"licm"}},
		Deferred:   []int{2},
		Supervisor: &SupervisorState{Breaker: 1, ConsecFails: 3, BackoffNS: 1e6, Quarantined: map[int]string{3: "boom"}},
	}
	if err := SaveState(path, want, o); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	got, err := LoadState(path, o)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestStateMissingAndCorrupt(t *testing.T) {
	o := testOptions()
	path := filepath.Join(t.TempDir(), "engine.snap")
	if st, err := LoadState(path, o); st != nil || err != nil {
		t.Fatalf("missing snapshot: (%v, %v), want (nil, nil)", st, err)
	}
	if err := SaveState(path, &EngineState{ModuleHash: 1}, o); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if st, err := LoadState(path, o); st != nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: (%v, %v), want ErrCorrupt", st, err)
	}
	// The corrupt file was removed: next load is a clean cold start.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot not removed")
	}
	if st, err := LoadState(path, o); st != nil || err != nil {
		t.Fatalf("post-removal load: (%v, %v), want (nil, nil)", st, err)
	}
	// Wrong magic: an entry blob is never accepted as a snapshot.
	if _, err := writeBlobAtomic(path, MagicEntry, o.BuildID, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st, err := LoadState(path, o); st != nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("entry-magic snapshot: (%v, %v), want ErrCorrupt", st, err)
	}
}

func TestEntryKeyMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	if err := s.Put(1, testEntry(1)); err != nil {
		t.Fatal(err)
	}
	// Rename the entry under a different key's name: content addressing
	// violated, so the loader must reject it.
	src := s.entryPath(1)
	dst := s.entryPath(2)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.index[2] = s.index[1]
	s.mu.Unlock()
	if e, err := s.Get(2); e != nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("misfiled entry: (%v, %v), want ErrCorrupt", e, err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			var err error
			for k := uint64(0); k < 20; k++ {
				if e := s.Put(uint64(w)*100+k, testEntry(uint64(w)*100+k)); e != nil {
					err = e
				}
			}
			done <- err
		}(w)
		go func(w int) {
			var err error
			for k := uint64(0); k < 20; k++ {
				if _, e := s.Get(uint64(w)*100 + k); e != nil {
					err = e
				}
			}
			done <- err
		}(w)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent op: %v", err)
		}
	}
	if s.Len() != 80 {
		t.Fatalf("entries = %d, want 80", s.Len())
	}
}
