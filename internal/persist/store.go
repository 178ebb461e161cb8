package persist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	ReadOnly       bool   `json:"read_only"`
}

// Store is a disk-backed artifact cache over one directory:
//
//	<dir>/lock            writer flock
//	<dir>/MANIFEST        store identity blob (schema + build ID)
//	<dir>/objects/<xx>/<key16>.obj   sharded content-addressed entries
//
// The entry files are the store's only record: there is no index or log of
// them to replay, rebuild or disagree with. All methods are safe for
// concurrent use; Get and Put from concurrent compile-pool workers serialize
// only on the closed-flag check, never on I/O.
type Store struct {
	dir     string
	buildID string
	hook    func(string) error
	metrics *Metrics

	// writer reports whether this store holds the exclusive writer lock.
	// Read-only stores serve Gets and silently refuse mutations.
	writer bool
	lockF  *os.File

	mu     sync.Mutex
	closed bool

	hits, misses, stores, corrupt, fallbacks atomic.Uint64
	bytesRead, bytesWritten                  atomic.Uint64
}

const entrySuffix = ".obj"

// entryName formats a key as its content-addressed file name.
func entryName(key uint64) string { return fmt.Sprintf("%016x%s", key, entrySuffix) }

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
// corrupt manifest is repaired (writer) or tolerated (reader), never fatal.
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
	// can repair nothing and opens anyway, since its engine must run
	// regardless: every entry still carries its own schema and build ID, so
	// each skewed one misses on its own Get.
	if !s.writer {
		return s, nil
	}
	manifestPath := filepath.Join(dir, "MANIFEST")
	ok, err := checkManifest(manifestPath, o.BuildID)
	if err != nil {
		releaseWriterLock(s.lockF)
		return nil, err
	}
	if !ok {
		if err := s.clearAll(); err != nil {
			releaseWriterLock(s.lockF)
			return nil, err
		}
		if err := writeManifest(manifestPath, o.BuildID); err != nil {
			releaseWriterLock(s.lockF)
			return nil, err
		}
	}
	// Directories written before the entries became the only record also
	// hold a publish/evict journal; nothing reads it any more.
	os.Remove(filepath.Join(dir, "journal"))
	sweepTemps(objDir)
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

// clearAll removes every entry — the writer's response to a
// whole-directory schema skew.
func (s *Store) clearAll() error {
	objDir := filepath.Join(s.dir, "objects")
	if err := os.RemoveAll(objDir); err != nil {
		return err
	}
	return os.MkdirAll(objDir, 0o755)
}

// sweepTemps removes abandoned temp files (kill -9 between temp write and
// rename) under the sharded objects tree, skipping whatever it cannot read.
// Only the writer calls it.
func sweepTemps(objDir string) {
	shards, err := os.ReadDir(objDir)
	if err != nil {
		return
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		shDir := filepath.Join(objDir, sh.Name())
		files, err := os.ReadDir(shDir)
		if err != nil {
			continue
		}
		for _, f := range files {
			if strings.HasPrefix(f.Name(), tempPattern) {
				os.Remove(filepath.Join(shDir, f.Name()))
			}
		}
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store degraded to read-only (writer lock
// held elsewhere, or Options.ReadOnly).
func (s *Store) ReadOnly() bool { return !s.writer }

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
			s.evict(path)
		} else {
			s.Fallback()
		}
		s.miss()
		return nil, err
	}
	if payload == nil {
		s.miss()
		return nil, nil
	}
	e, err := decodeEntry(payload)
	if err != nil {
		s.evict(path)
		s.miss()
		return nil, err
	}
	// The checksum proved the bytes are what the writer published; these
	// checks prove the writer published something sane for THIS key.
	if e.Key != key {
		s.evict(path)
		s.miss()
		return nil, fmt.Errorf("%w: entry key %016x under name %016x", ErrCorrupt, e.Key, key)
	}
	if err := e.Object.Validate(); err != nil {
		s.evict(path)
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
	s.mu.Unlock()
	path := s.entryPath(key)
	if _, err := os.Stat(path); err == nil {
		// Content-addressed: an existing name already holds these bytes.
		return nil
	}
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
	return nil
}

// evict removes a corrupt or skewed entry on detection. Read-only stores
// cannot unlink; they only count the detection, and the entry keeps missing
// on every Get until a writer evicts it.
func (s *Store) evict(path string) {
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
	}
}

// Close releases the writer lock. It is idempotent and safe to call
// concurrently with in-flight Gets and Puts: operations that lose the race
// fail with ErrClosed and are counted fallbacks, and a Put that already
// passed the check still lands a complete, verifiable entry.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	releaseWriterLock(s.lockF)
	s.lockF = nil
	return nil
}
