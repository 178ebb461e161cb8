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
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
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
	for k := uint64(1); k <= 5; k++ {
		e, err := s2.Get(k)
		if err != nil || e == nil {
			t.Fatalf("Get(%d) after reopen: (%v, %v)", k, e, err)
		}
	}
}

// corruptionMatrix is the blob-level corruption matrix: each mutilation of
// a published entry's bytes and the classification a load must give it. The
// fuzz targets seed their corpora from the same mutations.
var corruptionMatrix = []struct {
	name     string
	mutilate func(data []byte) []byte
	wantErr  error
}{
	{"truncate-half", func(d []byte) []byte { return d[:len(d)/2] }, ErrCorrupt},
	{"zero-length", func([]byte) []byte { return nil }, ErrCorrupt},
	{"bit-flip-payload", func(d []byte) []byte {
		d[len(d)-1] ^= 0x40
		return d
	}, ErrCorrupt},
	{"bit-flip-magic", func(d []byte) []byte {
		d[0] ^= 0x01
		return d
	}, ErrCorrupt},
	{"version-skew", func(d []byte) []byte {
		d[11]++ // schema uint32 low byte
		return d
	}, ErrSchemaSkew},
	{"half-write", func(d []byte) []byte {
		// A write torn mid-payload with trailing garbage appended:
		// length matches but checksum cannot.
		for i := len(d) - 8; i < len(d); i++ {
			d[i] ^= 0xAA
		}
		return d
	}, ErrCorrupt},
}

// TestCorruptionMatrix: each mutilation of a published entry must classify
// as corrupt or skewed, evict the entry, count it, and serve a plain miss
// afterwards — never a decode of bad bytes.
func TestCorruptionMatrix(t *testing.T) {
	for _, tc := range corruptionMatrix {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, testOptions())
			if err := s.Put(3, testEntry(3)); err != nil {
				t.Fatalf("Put: %v", err)
			}
			path := s.entryPath(3)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read entry: %v", err)
			}
			if err := os.WriteFile(path, tc.mutilate(data), 0o644); err != nil {
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
	// A skewed entry left in place would fail its Get with ErrSchemaSkew and
	// count an eviction; a cleared one is a plain miss.
	s2 := mustOpen(t, dir, Options{BuildID: "other-build"})
	if e, err := s2.Get(1); e != nil || err != nil {
		t.Fatalf("Get after skew clear: (%v, %v), want (nil, nil)", e, err)
	}
	if st := s2.Stats(); st.CorruptEvicted != 0 {
		t.Fatalf("skewed entry evicted at Get, not cleared at Open: %+v", st)
	}
}

// TestPutDedupe: content addressing makes an existing name proof of its
// bytes, so a Put of a published key writes nothing; once the file is gone
// (an external cleanup), the same Put publishes it again.
func TestPutDedupe(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	if err := s.Put(5, testEntry(5)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := s.Put(5, testEntry(5)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Stores != before.Stores || st.BytesWritten != before.BytesWritten {
		t.Fatalf("duplicate Put wrote: before %+v, after %+v", before, st)
	}
	if err := os.Remove(s.entryPath(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(5, testEntry(5)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Stores != before.Stores+1 {
		t.Fatalf("Put after external delete: stores %d, want %d", st.Stores, before.Stores+1)
	}
	if e, err := s.Get(5); err != nil || e == nil {
		t.Fatalf("Get after re-publish: (%v, %v)", e, err)
	}
}

// TestUpgradeRemovesJournal: a directory written when the store still kept
// a publish/evict journal beside its entries opens with every entry served,
// whatever state that journal is in. A writer removes the dead file; a
// read-only opener leaves it alone.
func TestUpgradeRemovesJournal(t *testing.T) {
	keys := []uint64{1, 2<<56 | 2, 3<<56 | 3}
	// record is one journal put record: [op 'p'][key 8][size 8].
	record := func(key uint64) []byte {
		var b [17]byte
		b[0] = 'p'
		binary.BigEndian.PutUint64(b[1:9], key)
		binary.BigEndian.PutUint64(b[9:17], 100)
		return b[:]
	}
	var framed, bare []byte
	for _, k := range keys {
		framed = append(framed, frameLogRecord(record(k))...)
		// The framing before the journal moved onto the Log's: a bare
		// 21-byte [op][key][size][crc] record.
		bare = binary.BigEndian.AppendUint32(append(bare, record(k)...), crc32.ChecksumIEEE(record(k)))
	}
	journals := []struct {
		name string
		data []byte
	}{
		{"valid", framed},
		{"torn", append(append([]byte(nil), framed...), 0, 0, 0, 17, 0xde)},
		{"garbage", []byte("not a journal, definitely")},
		{"old-framing", bare},
	}
	for _, jc := range journals {
		t.Run(jc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, testOptions())
			for _, k := range keys {
				if err := s.Put(k, testEntry(k)); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			jpath := filepath.Join(dir, "journal")
			if err := os.WriteFile(jpath, jc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, o := range []Options{{BuildID: testBuildID, ReadOnly: true}, testOptions()} {
				s := mustOpen(t, dir, o)
				for _, k := range keys {
					if e, err := s.Get(k); err != nil || e == nil {
						t.Fatalf("read-only=%v: Get(%x) = (%v, %v)", o.ReadOnly, k, e, err)
					}
				}
				_, err := os.Stat(jpath)
				if o.ReadOnly && err != nil {
					t.Fatalf("read-only opener touched the journal: %v", err)
				}
				if !o.ReadOnly && !os.IsNotExist(err) {
					t.Fatalf("writer left the journal in place: %v", err)
				}
				s.Close()
			}
		})
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
		Quarantine: map[int][]string{3: {"licm"}},
		Deferred:   []int{2},
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

// layout1StatePayload encodes a snapshot payload in state layout 1, which
// carried a function-cache metadata section and the supervisor's breaker and
// probe quarantine: here an open breaker and a quarantined probe 3.
func layout1StatePayload() []byte {
	e := &encoder{}
	e.byte(1)
	e.u64(0xfeed)
	e.str("callgraph")
	e.i64(2) // opt level
	e.i64(0) // verify tier
	e.i64(4) // fragments
	e.u64(1) // hashes
	e.i64(0)
	e.u64(1)
	e.u64(1) // function-cache metadata: fragment 0, level 2, one function
	e.i64(0)
	e.i64(2)
	e.u64(1)
	e.str("f")
	e.u64(9)
	e.u64(0)      // pass quarantine
	e.u64(0)      // deferred
	e.bool(false) // survey
	e.u64(0)      // verified functions
	e.bool(true)  // supervisor: open, 3 failures, 1ms backoff, probe 3
	e.i64(2)
	e.i64(3)
	e.i64(1e6)
	e.u64(1)
	e.i64(3)
	e.str("boom")
	return e.buf
}

// TestStateRefusesLayout1: a snapshot in the older state layout is version
// skew, never misparsed into a current EngineState, and is removed so the
// next save writes the current layout.
func TestStateRefusesLayout1(t *testing.T) {
	o := testOptions()
	path := filepath.Join(t.TempDir(), "engine.snap")
	if _, err := writeBlobAtomic(path, MagicSnapshot, o.BuildID, layout1StatePayload()); err != nil {
		t.Fatal(err)
	}
	st, err := LoadState(path, o)
	if st != nil || !errors.Is(err, ErrSchemaSkew) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("layout-1 snapshot: (%+v, %v), want ErrSchemaSkew", st, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("skewed snapshot not removed")
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
	for w := uint64(0); w < 4; w++ {
		for k := uint64(0); k < 20; k++ {
			if e, err := s.Get(w*100 + k); err != nil || e == nil {
				t.Fatalf("Get(%d) after concurrent Puts: (%v, %v)", w*100+k, e, err)
			}
		}
	}
}
