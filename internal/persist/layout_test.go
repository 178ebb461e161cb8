package persist

import (
	"path/filepath"
	"testing"
)

func TestShardLayout(t *testing.T) {
	root := t.TempDir()
	a, err := ShardLayout(root, "alpha")
	if err != nil {
		t.Fatalf("ShardLayout alpha: %v", err)
	}
	b, err := ShardLayout(root, "beta")
	if err != nil {
		t.Fatalf("ShardLayout beta: %v", err)
	}
	if a.CacheDir == b.CacheDir || a.SnapshotPath == b.SnapshotPath {
		t.Fatalf("shards must not alias: %+v vs %+v", a, b)
	}
	if want := filepath.Join(root, "shards", "alpha", "cache"); a.CacheDir != want {
		t.Errorf("CacheDir = %q, want %q", a.CacheDir, want)
	}

	for _, bad := range []string{"", "..", "a/b", "a\\b", ".hidden/../x", "-lead"} {
		if _, err := ShardLayout(root, bad); err == nil {
			t.Errorf("ShardLayout(%q) should reject", bad)
		}
	}
}
