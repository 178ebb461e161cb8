package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// shardNameRE restricts shard names to path-safe tokens so a shard name can
// never escape the data root or collide with the store's own files.
var shardNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ShardPaths is the on-disk location of one engine shard under a shared
// data root: a private cache directory for the object store and a private
// snapshot file for engine state, so shards warm-start independently and a
// corrupt shard can be wiped without touching its neighbours.
type ShardPaths struct {
	// CacheDir is the shard's persistent object store (core.Options.CacheDir).
	CacheDir string
	// SnapshotPath is the shard's engine-state snapshot
	// (core.Options.SnapshotPath).
	SnapshotPath string
	// JournalPath is the shard's replayable tenant-probe journal (an
	// append-only Log): the record the serve layer replays to reconstruct
	// probe state when the process restarts.
	JournalPath string
}

// ShardLayout maps (root, shard) to that shard's cache directory, snapshot
// path, and probe journal, creating the directories. The layout is
//
//	root/shards/<name>/cache/       object store
//	root/shards/<name>/state.json   engine snapshot
//	root/shards/<name>/journal.log  tenant-probe journal
//
// Shard names must be path-safe ([A-Za-z0-9_.-], 64 chars max, not starting
// with a separator-adjacent character); anything else is rejected rather
// than sanitized so two distinct configured names can never alias one
// directory.
func ShardLayout(root, shard string) (ShardPaths, error) {
	if !shardNameRE.MatchString(shard) {
		return ShardPaths{}, fmt.Errorf("persist: invalid shard name %q", shard)
	}
	dir := filepath.Join(root, "shards", shard)
	cache := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return ShardPaths{}, fmt.Errorf("persist: shard layout: %w", err)
	}
	return ShardPaths{
		CacheDir:     cache,
		SnapshotPath: filepath.Join(dir, "state.json"),
		JournalPath:  filepath.Join(dir, "journal.log"),
	}, nil
}
