// Package persist is the disk-backed tier of Odin's compilation caches: a
// crash-safe artifact store for compiled fragment objects plus engine state
// snapshots, so a restarted (or crashed, or redeployed) engine warm-starts
// instead of paying a whole-program cold rebuild.
//
// Robustness contract — verify-or-degrade. A persistent cache that can serve
// a torn, truncated, bit-flipped, or version-skewed entry is strictly worse
// than no cache at all, so every load path here verifies before it trusts:
//
//   - Every on-disk artifact is a self-describing blob: magic, schema
//     version, toolchain/build ID, payload length, and a SHA-256 checksum
//     over the payload. Any mismatch classifies as corruption or version
//     skew — never a decode of untrusted bytes.
//   - Entries are published atomically: payload written to a temp file in
//     the target directory, fsynced, then renamed into a sharded
//     content-addressed layout (objects/<xx>/<key>.obj). A reader can
//     observe an entry fully or not at all; kill -9 between temp write and
//     rename leaves only an ignorable temp file.
//   - The entry files are the store's only record: no index or journal of
//     them exists to replay at Open or to fall out of step with the
//     directory, so a lookup is a read of the key's path and nothing else.
//   - Corrupt or skewed entries are evicted on detection (when the store
//     holds the writer lock) and counted on the odin_persist_corrupt_evicted
//     metric; the caller sees a plain miss and compiles cold.
//   - Single-writer/multi-reader: one engine holds an exclusive flock on the
//     cache directory and may publish and evict; further engines sharing the
//     directory degrade to read-only stores (loads still hit). Entries are
//     immutable once published, so readers need no lock of their own.
//
// Every failure mode — missing entry, checksum mismatch, short read,
// incompatible schema, locked directory, full disk, injected I/O fault via
// the persist:* faultinject sites — surfaces as a counted miss or fallback,
// never an error the compilation pipeline has to handle.
package persist

import (
	"errors"
	"fmt"

	"odin/internal/telemetry"
)

// Schema is the on-disk format version, stamped into every blob header.
// Bump it when the blob layout or the entry payload changes incompatibly;
// skewed entries are evicted on load. The snapshot payload carries its own
// layout version (stateCodecVersion, codec.go), so a snapshot-only change
// leaves every cache directory loadable.
//
// History: 1 = gob entry payloads; 2 = varint entry codec (codec.go) and
// snapshot survey/verification carryover.
const Schema uint32 = 2

// Fault-injection site names (Options.FaultHook). They follow the pipeline's
// "<stage>:<point>" convention so a faultinject.Rule{Site: "persist:*"}
// sweeps the whole persistence layer.
const (
	SiteOpen         = "persist:open"
	SiteLoad         = "persist:load"
	SiteStore        = "persist:store"
	SiteEvict        = "persist:evict"
	SiteSnapshotSave = "persist:snapshot-save"
	SiteSnapshotLoad = "persist:snapshot-load"
)

// Classified load failures. Callers rarely branch on these — every one of
// them means "compile cold" — but tests and eviction accounting do.
var (
	// ErrCorrupt reports a checksum mismatch, short read, torn write, or
	// undecodable payload. The offending file is evicted when possible.
	ErrCorrupt = errors.New("persist: corrupt artifact")
	// ErrSchemaSkew reports an artifact written by an incompatible schema
	// version or a different toolchain/build ID. Skewed entries are evicted
	// like corrupt ones: they can never become loadable again.
	ErrSchemaSkew = errors.New("persist: schema or build-id skew")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("persist: store closed")
	// ErrReadOnly reports a mutation on a store that lost the writer-lock
	// race and degraded to read-only.
	ErrReadOnly = errors.New("persist: store is read-only (writer lock held elsewhere)")
)

// Options configures a Store (and the snapshot helpers).
type Options struct {
	// BuildID identifies the toolchain and cache-relevant engine
	// configuration. It is stamped into every blob header; entries with a
	// different BuildID are version skew and are evicted on load.
	BuildID string
	// Telemetry, when non-nil, receives the odin_persist_* metric families.
	// nil follows the engine's zero-overhead contract: nil handles,
	// nil-check-only updates.
	Telemetry *telemetry.Registry
	// FaultHook, when non-nil, is called at the persist:* sites before each
	// I/O operation. A returned error (or panic — the hook runs under panic
	// isolation) fails that operation, which the store degrades into a
	// counted miss or fallback.
	FaultHook func(site string) error
	// ReadOnly forces read-only mode without attempting the writer lock
	// (inspection tools use it to observe a live engine's cache).
	ReadOnly bool
}

// Metric family names. Registered at zero when a store (or the engine's
// snapshot path) is created with a telemetry registry.
const (
	MetricHits           = "odin_persist_hits_total"
	MetricMisses         = "odin_persist_misses_total"
	MetricStores         = "odin_persist_stores_total"
	MetricCorruptEvicted = "odin_persist_corrupt_evicted_total"
	MetricFallbacks      = "odin_persist_fallbacks_total"
	MetricBytesRead      = "odin_persist_bytes_read_total"
	MetricBytesWritten   = "odin_persist_bytes_written_total"
	MetricLoadSeconds    = "odin_persist_load_seconds"
	MetricStoreSeconds   = "odin_persist_store_seconds"
)

// Metrics holds the pre-registered persist metric handles. The zero value
// (and any handle from a nil registry) is nil-safe and free.
type Metrics struct {
	Hits           *telemetry.Counter
	Misses         *telemetry.Counter
	Stores         *telemetry.Counter
	CorruptEvicted *telemetry.Counter
	Fallbacks      *telemetry.Counter
	BytesRead      *telemetry.Counter
	BytesWritten   *telemetry.Counter
	LoadDur        *telemetry.Histogram
	StoreDur       *telemetry.Histogram
}

// NewMetrics registers the odin_persist_* families on reg (a no-op returning
// nil handles when reg is nil).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	reg.Describe(MetricHits, "Artifacts served from the persistent cache.")
	reg.Describe(MetricMisses, "Persistent-cache lookups that found no usable entry.")
	reg.Describe(MetricStores, "Artifacts published to the persistent cache.")
	reg.Describe(MetricCorruptEvicted, "Corrupt or version-skewed artifacts evicted on detection.")
	reg.Describe(MetricFallbacks, "Persistence operations that failed and fell back to the in-memory path (I/O errors, locked or read-only store, injected faults).")
	reg.Describe(MetricBytesRead, "Bytes read from the persistent cache.")
	reg.Describe(MetricBytesWritten, "Bytes written to the persistent cache.")
	reg.Describe(MetricLoadSeconds, "Persistent-cache load latency (hit or classified miss).")
	reg.Describe(MetricStoreSeconds, "Persistent-cache store latency (atomic publish).")
	return &Metrics{
		Hits:           reg.Counter(MetricHits),
		Misses:         reg.Counter(MetricMisses),
		Stores:         reg.Counter(MetricStores),
		CorruptEvicted: reg.Counter(MetricCorruptEvicted),
		Fallbacks:      reg.Counter(MetricFallbacks),
		BytesRead:      reg.Counter(MetricBytesRead),
		BytesWritten:   reg.Counter(MetricBytesWritten),
		LoadDur:        reg.Histogram(MetricLoadSeconds, nil),
		StoreDur:       reg.Histogram(MetricStoreSeconds, nil),
	}
}

// fault runs the hook for one persist site under panic isolation: a hook
// that panics (faultinject.KindPanic) degrades to an error for that one
// operation instead of crashing the process.
func fault(hook func(string) error, site string) (err error) {
	if hook == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("persist: fault hook panicked at %s: %v", site, r)
		}
	}()
	return hook(site)
}
