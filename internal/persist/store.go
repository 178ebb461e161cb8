package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odin/internal/obj"
)

// Entry is one persisted fragment artifact: the compiled object and the
// level it was compiled at. Degraded or quarantined objects are never
// persisted, so every entry is a clean compile at its recorded level.
type Entry struct {
	// Key echoes the cache key the entry was stored under; a mismatch on
	// load means the content-addressed layout was tampered with or a rename
	// landed on the wrong name, and classifies as corruption.
	Key uint64
	// Object is the compiled fragment object.
	Object *obj.Object
	// Level is the optimization level the object was compiled at.
	Level int
	// FuncHashes held per-function hashes for a function-granular cache
	// that no longer exists. Entries written with them still decode; the
	// engine neither reads nor writes the field.
	FuncHashes map[string]uint64
}

// Stats is a point-in-time snapshot of a store's counters, mirrored from
// the odin_persist_* metric families so tests and inspection tools need no
// telemetry registry.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Stores         uint64 `json:"stores"`
	CorruptEvicted uint64 `json:"corrupt_evicted"`
	Fallbacks      uint64 `json:"fallbacks"`
	BytesRead      uint64 `json:"bytes_read"`
	BytesWritten   uint64 `json:"bytes_written"`
	Entries        int    `json:"entries"`
	ReadOnly       bool   `json:"read_only"`
}

// Store is a disk-backed artifact cache over one directory:
//
//	<dir>/lock            writer flock
//	<dir>/MANIFEST        store identity blob (schema + build ID)
//	<dir>/journal         append-only publish/evict log (see journal.go)
//	<dir>/objects/<xx>/<key16>.obj   sharded content-addressed entries
//
// All methods are safe for concurrent use; Get and Put from concurrent
// compile-pool workers serialize only on the in-memory index, not on I/O.
type Store struct {
	dir     string
	buildID string
	hook    func(string) error
	metrics *Metrics

	// writer reports whether this store holds the exclusive writer lock.
	// Read-only stores serve Gets and silently refuse mutations.
	writer bool
	lockF  *os.File

	mu      sync.Mutex
	closed  bool
	index   map[uint64]int64 // live keys → entry size
	journal *os.File

	hits, misses, stores, corrupt, fallbacks atomic.Uint64
	bytesRead, bytesWritten                  atomic.Uint64
}

const entrySuffix = ".obj"

// entryName formats a key as its content-addressed file name.
func entryName(key uint64) string { return fmt.Sprintf("%016x%s", key, entrySuffix) }

func parseEntryName(name string) (uint64, bool) {
	hex := strings.TrimSuffix(name, entrySuffix)
	if len(hex) != 16 {
		return 0, false
	}
	key, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return key, true
}

// entryPath returns the sharded path for a key (shard = top byte).
func (s *Store) entryPath(key uint64) string {
	return filepath.Join(s.dir, "objects", fmt.Sprintf("%02x", byte(key>>56)), entryName(key))
}

// manifest is the store-identity payload. Entries carry the same identity in
// every blob header; the manifest lets a writer detect a whole-directory
// schema skew at Open and clear the dead weight eagerly instead of evicting
// entry by entry.
type manifest struct {
	Schema  uint32
	BuildID string
}

// Open opens (creating if needed) the artifact store in dir. The first
// opener to win the writer flock may publish and evict; later openers on
// the same directory — and Options.ReadOnly ones — degrade to read-only.
// Open fails only on hard I/O errors against the directory itself; a
// corrupt journal or manifest is repaired (writer) or tolerated (reader),
// never fatal.
func Open(dir string, o Options) (*Store, error) {
	if err := fault(o.FaultHook, SiteOpen); err != nil {
		return nil, err
	}
	objDir := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		buildID: o.BuildID,
		hook:    o.FaultHook,
		metrics: NewMetrics(o.Telemetry),
	}
	if !o.ReadOnly {
		lockF, err := acquireWriterLock(filepath.Join(dir, "lock"))
		if err != nil {
			return nil, err
		}
		s.lockF = lockF
		s.writer = lockF != nil
	}

	// Identity check. A writer finding a skewed or corrupt manifest owns the
	// directory now: clear the incompatible entries and restamp. A reader
	// can repair nothing — it opens with an empty view (every Get misses)
	// rather than failing, since its engine must run regardless.
	manifestPath := filepath.Join(dir, "MANIFEST")
	ok, err := checkManifest(manifestPath, o.BuildID)
	if err != nil && s.writer {
		return nil, err
	}
	if !ok {
		if !s.writer {
			s.index = map[uint64]int64{}
			s.metrics.Entries.Set(0)
			return s, nil
		}
		if err := s.clearAll(); err != nil {
			releaseWriterLock(s.lockF)
			return nil, err
		}
		if err := writeManifest(manifestPath, o.BuildID); err != nil {
			releaseWriterLock(s.lockF)
			return nil, err
		}
	}

	// Index: replay the journal, tolerate its torn tail, and cross-check
	// against reality with a directory scan when the journal is useless.
	index, goodLen, jerr := replayJournal(filepath.Join(dir, "journal"))
	if jerr != nil || len(index) == 0 {
		if scanned := scanObjects(objDir); len(scanned) > 0 || jerr != nil {
			index = scanned
			goodLen = 0 // journal unusable: writer rewrites it below
		}
	}
	s.index = index
	if s.writer {
		sweepTemps(objDir)
		jf, err := openJournalForAppend(filepath.Join(dir, "journal"), goodLen)
		if err != nil {
			releaseWriterLock(s.lockF)
			return nil, err
		}
		s.journal = jf
		if goodLen == 0 && len(index) > 0 {
			// Rebuilt from scan: re-seed the journal so the next Open is a
			// pure replay again.
			for key, size := range index {
				appendJournal(jf, journalRec{op: journalOpPut, key: key, size: size})
			}
		}
	}
	s.metrics.Entries.Set(int64(len(s.index)))
	return s, nil
}

// checkManifest reports whether the manifest matches the current identity.
// Missing, corrupt, or skewed manifests all report false; only hard I/O
// errors surface.
func checkManifest(path, buildID string) (bool, error) {
	payload, _, err := readBlob(path, MagicSnapshot, buildID)
	if err != nil {
		if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrSchemaSkew) {
			return false, nil
		}
		return false, err
	}
	if payload == nil {
		return false, nil
	}
	var m manifest
	if gob.NewDecoder(bytes.NewReader(payload)).Decode(&m) != nil {
		return false, nil
	}
	return m.Schema == Schema && m.BuildID == buildID, nil
}

func writeManifest(path, buildID string) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(manifest{Schema: Schema, BuildID: buildID}); err != nil {
		return err
	}
	_, err := writeBlobAtomic(path, MagicSnapshot, buildID, buf.Bytes())
	return err
}

// clearAll removes every entry and the journal — the writer's response to a
// whole-directory schema skew.
func (s *Store) clearAll() error {
	objDir := filepath.Join(s.dir, "objects")
	if err := os.RemoveAll(objDir); err != nil {
		return err
	}
	os.Remove(filepath.Join(s.dir, "journal"))
	return os.MkdirAll(objDir, 0o755)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store degraded to read-only (writer lock
// held elsewhere, or Options.ReadOnly).
func (s *Store) ReadOnly() bool { return !s.writer }

// Len returns the number of live entries in the index.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Stores:         s.stores.Load(),
		CorruptEvicted: s.corrupt.Load(),
		Fallbacks:      s.fallbacks.Load(),
		BytesRead:      s.bytesRead.Load(),
		BytesWritten:   s.bytesWritten.Load(),
		Entries:        s.Len(),
		ReadOnly:       s.ReadOnly(),
	}
}

// Fallback counts one operation that degraded to the in-memory path,
// including a publication its caller dropped before it reached Put.
func (s *Store) Fallback() {
	s.fallbacks.Add(1)
	s.metrics.Fallbacks.Inc()
}

// Get loads the entry for key. A usable entry returns (*Entry, nil); every
// other outcome — absent, corrupt (evicted), skewed (evicted), injected
// fault, I/O error, closed store — returns (nil, err) with err describing
// the cause (nil for a plain miss). Callers compile cold on any nil Entry.
func (s *Store) Get(key uint64) (*Entry, error) {
	t0 := time.Now()
	defer func() { s.metrics.LoadDur.Observe(time.Since(t0)) }()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.Fallback()
		return nil, ErrClosed
	}
	if err := fault(s.hook, SiteLoad); err != nil {
		s.Fallback()
		return nil, err
	}
	path := s.entryPath(key)
	payload, n, err := readBlob(path, MagicEntry, s.buildID)
	s.bytesRead.Add(uint64(n))
	s.metrics.BytesRead.Add(uint64(n))
	if err != nil {
		if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrSchemaSkew) {
			s.evict(key, path)
		} else {
			s.Fallback()
		}
		s.miss()
		return nil, err
	}
	if payload == nil {
		s.miss()
		s.dropIndexed(key)
		return nil, nil
	}
	e, err := decodeEntry(payload)
	if err != nil {
		s.evict(key, path)
		s.miss()
		return nil, err
	}
	// The checksum proved the bytes are what the writer published; these
	// checks prove the writer published something sane for THIS key.
	if e.Key != key {
		s.evict(key, path)
		s.miss()
		return nil, fmt.Errorf("%w: entry key %016x under name %016x", ErrCorrupt, e.Key, key)
	}
	if err := e.Object.Validate(); err != nil {
		s.evict(key, path)
		s.miss()
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.hits.Add(1)
	s.metrics.Hits.Inc()
	return e, nil
}

func (s *Store) miss() {
	s.misses.Add(1)
	s.metrics.Misses.Inc()
}

// Put publishes an entry atomically. Failures — read-only store, closed
// store, injected fault, full disk — are counted fallbacks; the caller's
// in-memory cache is unaffected either way.
func (s *Store) Put(key uint64, e *Entry) error {
	t0 := time.Now()
	defer func() { s.metrics.StoreDur.Observe(time.Since(t0)) }()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.Fallback()
		return ErrClosed
	}
	if !s.writer {
		s.mu.Unlock()
		s.Fallback()
		return ErrReadOnly
	}
	if _, dup := s.index[key]; dup {
		// Content-addressed: an indexed key already holds these bytes.
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	if e.Object == nil {
		s.Fallback()
		return fmt.Errorf("persist: refusing to store entry %016x without an object", key)
	}
	if err := fault(s.hook, SiteStore); err != nil {
		s.Fallback()
		return err
	}
	e.Key = key
	payload := encodeEntry(e)
	path := s.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.Fallback()
		return err
	}
	n, err := writeBlobAtomic(path, MagicEntry, s.buildID, payload)
	if err != nil {
		s.Fallback()
		return err
	}
	s.bytesWritten.Add(uint64(n))
	s.metrics.BytesWritten.Add(uint64(n))
	s.stores.Add(1)
	s.metrics.Stores.Inc()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Lost the race with Close after the entry landed: the entry is
		// valid on disk and will be rediscovered by the next Open's scan;
		// only this journal record is skipped.
		return nil
	}
	s.index[key] = int64(n)
	s.metrics.Entries.Set(int64(len(s.index)))
	appendJournal(s.journal, journalRec{op: journalOpPut, key: key, size: int64(n)})
	return nil
}

// evict removes a corrupt or skewed entry on detection. Read-only stores
// cannot unlink; they still count the detection and forget the key.
func (s *Store) evict(key uint64, path string) {
	s.corrupt.Add(1)
	s.metrics.CorruptEvicted.Inc()
	if ferr := fault(s.hook, SiteEvict); ferr != nil {
		s.Fallback()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer && !s.closed {
		os.Remove(path)
		appendJournal(s.journal, journalRec{op: journalOpDel, key: key})
	}
	delete(s.index, key)
	s.metrics.Entries.Set(int64(len(s.index)))
}

// dropIndexed forgets a key whose file vanished underneath the index (an
// external cleanup); the journal records the deletion so the next Open
// agrees.
func (s *Store) dropIndexed(key uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; !ok {
		return
	}
	delete(s.index, key)
	s.metrics.Entries.Set(int64(len(s.index)))
	if s.writer && !s.closed {
		appendJournal(s.journal, journalRec{op: journalOpDel, key: key})
	}
}

// Close flushes the journal and releases the writer lock. It is idempotent
// and safe to call concurrently with in-flight Gets and Puts: operations
// that lose the race fail with ErrClosed and are counted fallbacks.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.journal != nil {
		if serr := s.journal.Sync(); serr != nil {
			err = serr
		}
		if cerr := s.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.journal = nil
	}
	releaseWriterLock(s.lockF)
	s.lockF = nil
	return err
}
