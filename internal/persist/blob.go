package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Blob layout. Every persisted artifact — cache entries and state snapshots
// alike — is wrapped in a fixed self-describing header so a loader can
// classify any file as valid, corrupt, or skewed without decoding untrusted
// bytes:
//
//	offset  size  field
//	0       8     magic ("ODINART1" for cache entries, "ODINSNP1" for
//	              snapshots — a snapshot can never be mistaken for an entry)
//	8       4     schema version, big-endian uint32
//	12      2     build-ID length n, big-endian uint16
//	14      n     build ID (toolchain + cache-relevant configuration)
//	14+n    8     payload length, big-endian uint64
//	22+n    32    SHA-256 of the payload
//	54+n    ...   payload (gob)
//
// The checksum covers the payload; the header fields are implicitly covered
// because any mutation of them misclassifies the blob (bad magic, skew, or a
// length/checksum mismatch) — there is no header mutation that yields a
// valid-looking blob with a different payload.

// Blob magics.
var (
	MagicEntry    = [8]byte{'O', 'D', 'I', 'N', 'A', 'R', 'T', '1'}
	MagicSnapshot = [8]byte{'O', 'D', 'I', 'N', 'S', 'N', 'P', '1'}
)

const blobFixedHeader = 8 + 4 + 2 // magic + schema + buildID length

// encodeBlob frames payload with the self-describing checksummed header.
func encodeBlob(magic [8]byte, buildID string, payload []byte) []byte {
	if len(buildID) > 0xFFFF {
		buildID = buildID[:0xFFFF]
	}
	buf := make([]byte, 0, blobFixedHeader+len(buildID)+8+sha256.Size+len(payload))
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, Schema)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(buildID)))
	buf = append(buf, buildID...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	return buf
}

// decodeBlob verifies a blob read from disk and returns its payload.
// Classification: ErrCorrupt for anything torn, truncated, flipped, or
// trailing-garbage; ErrSchemaSkew for a well-formed blob written by a
// different schema version or build ID.
func decodeBlob(data []byte, magic [8]byte, buildID string) ([]byte, error) {
	if len(data) < blobFixedHeader {
		return nil, fmt.Errorf("%w: %d-byte file shorter than header", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	schema := binary.BigEndian.Uint32(data[8:12])
	idLen := int(binary.BigEndian.Uint16(data[12:14]))
	rest := data[blobFixedHeader:]
	if len(rest) < idLen+8+sha256.Size {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	gotID := string(rest[:idLen])
	rest = rest[idLen:]
	plen := binary.BigEndian.Uint64(rest[:8])
	var sum [sha256.Size]byte
	copy(sum[:], rest[8:8+sha256.Size])
	payload := rest[8+sha256.Size:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(payload), plen)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	// Integrity before identity: a schema/build-ID skew verdict is only
	// trustworthy for a blob whose bytes check out.
	if schema != Schema {
		return nil, fmt.Errorf("%w: schema %d, want %d", ErrSchemaSkew, schema, Schema)
	}
	if gotID != buildID {
		return nil, fmt.Errorf("%w: build ID %q, want %q", ErrSchemaSkew, gotID, buildID)
	}
	return payload, nil
}

// tempPattern is the temp-file prefix atomic publishes write under; no
// reader ever opens one, and a writer's Open sweeps abandoned ones (kill -9
// between temp write and rename).
const tempPattern = ".tmp-"

// WriteFileAtomic publishes data at path atomically: write to a temp file in
// the destination directory, fsync it, rename over path, then fsync the
// directory so the rename itself survives a crash. A reader (or a crash) can
// observe the old content or the new content, never a prefix.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tempPattern+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename is durable. Filesystems
// that refuse directory fsync (some network mounts) degrade silently: the
// rename's atomicity still holds, only crash-durability of the very last
// publish is at risk, and a lost entry is just a future cold compile.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// writeBlobAtomic frames and atomically publishes one artifact, returning
// the bytes written.
func writeBlobAtomic(path string, magic [8]byte, buildID string, payload []byte) (int, error) {
	blob := encodeBlob(magic, buildID, payload)
	if err := WriteFileAtomic(path, blob, 0o644); err != nil {
		return 0, err
	}
	return len(blob), nil
}

// readBlob reads and verifies one artifact, returning its payload and the
// bytes read. A missing file returns (nil, 0, nil): the ordinary miss.
func readBlob(path string, magic [8]byte, buildID string) ([]byte, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	payload, err := decodeBlob(data, magic, buildID)
	if err != nil {
		return nil, len(data), err
	}
	return payload, len(data), nil
}
