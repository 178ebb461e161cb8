package persist

import (
	"errors"
	"fmt"
	"os"
)

// EngineState is the persisted form of an engine's warm-start metadata: the
// identity guards, the pass quarantine that must survive a restart so a
// crashing pass is not re-trusted just because the process bounced, and the
// survey and verification results a warm engine would otherwise recompute.
// It holds only what a restore reads: a restored fragment has no object
// until its first build, which recomputes its hash (the store finds the
// persisted object by it). Every fact in it is keyed
// by fragment ID or symbol name, which an identical module partitions to
// identically; nothing keyed by a process-local ID (probe IDs, supervisor
// generations) belongs here.
type EngineState struct {
	// ModuleHash fingerprints the pristine module the snapshot was taken
	// against. A restore against a different module is version skew: every
	// per-fragment fact in the snapshot is keyed by fragment ID, and IDs are
	// only stable for an identical partition of an identical module.
	ModuleHash uint64
	// Variant is the partitioner variant name, a second identity guard.
	Variant string
	// OptLevel is the engine's configured optimization level.
	OptLevel int
	// Fragments is the partition's fragment count (identity guard).
	Fragments int
	// VerifyTier is the snapshotting engine's resolved verification tier
	// (core.VerifyMode's integer value). A warm restart skips re-running the
	// strict input-module check only when the snapshotting session held the
	// module to that bar (the module hash proves the content is identical).
	VerifyTier int
	// Quarantine maps fragment ID to the pass names quarantined for it.
	Quarantine map[int][]string
	// Survey, when non-nil, is the partitioner's classification survey for
	// this module at this opt level. The survey is a pure function of
	// (module, optLevel) but costs a trial optimization run of the whole
	// module to compute; restoring it lets a warm engine partition without
	// re-running the trial. Guarded by ModuleHash and OptLevel above.
	Survey *SurveyState
	// VerifiedFuncs carries the boundary verifier's clean results across
	// restarts: function name to the FingerprintSym content hash that was
	// strictly verified in the snapshotting session. A warm rebuild skips
	// re-verifying a function whose hash still matches — the same rule the
	// in-memory verification cache applies within a session.
	VerifiedFuncs map[string]uint64
}

// SurveyState is the persisted form of the partitioner's classification
// survey (core.Classification): symbol categories plus the bond/copy
// constraints the trial optimization run discovered.
type SurveyState struct {
	// Cat maps defined symbol names to their category's integer value.
	Cat map[string]int
	// BondPairs and InnatePairs are symbol pairs that must share a fragment.
	BondPairs   [][2]string
	InnatePairs [][2]string
	// CopyUsers maps each copy-on-use symbol to its inspecting functions.
	CopyUsers map[string][]string
}

// SaveState atomically writes an engine state snapshot to path, framed and
// checksummed like every other persisted artifact.
func SaveState(path string, st *EngineState, o Options) error {
	if err := fault(o.FaultHook, SiteSnapshotSave); err != nil {
		return err
	}
	_, err := writeBlobAtomic(path, MagicSnapshot, o.BuildID, encodeState(st))
	return err
}

// LoadState reads and verifies an engine state snapshot. A missing file
// returns (nil, nil) — the ordinary cold start. A corrupt or skewed snapshot
// (including a payload in an older state layout) is removed (it can never
// become loadable) and returns an error, classified ErrCorrupt or
// ErrSchemaSkew, that the caller degrades into a cold start.
func LoadState(path string, o Options) (*EngineState, error) {
	if err := fault(o.FaultHook, SiteSnapshotLoad); err != nil {
		return nil, err
	}
	payload, _, err := readBlob(path, MagicSnapshot, o.BuildID)
	if err != nil {
		if (errors.Is(err, ErrCorrupt) || errors.Is(err, ErrSchemaSkew)) && !o.ReadOnly {
			os.Remove(path)
		}
		return nil, err
	}
	if payload == nil {
		return nil, nil
	}
	st, derr := decodeState(payload)
	if derr != nil {
		if !o.ReadOnly {
			os.Remove(path)
		}
		return nil, fmt.Errorf("undecodable snapshot: %w", derr)
	}
	return st, nil
}
