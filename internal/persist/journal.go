package persist

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The journal is the store's metadata of record: an append-only sequence of
// fixed-size publish/evict records in the Log's [len][crc][payload] framing
// (log.go). Its only jobs are a fast index at Open (no directory walk on the
// hot path) and byte accounting; the entries themselves are the source of
// truth, so the journal can ALWAYS be discarded and rebuilt from a directory
// scan.
//
// Kill-9 tolerance is the Log's: each record is checksummed and appended
// with a single write, replay stops at the first record that is short or
// fails its checksum — a torn tail from a crash mid-append — and the writer
// truncates the tail away before appending again. Records after a torn one
// are unreachable by construction (appends are sequential), so stopping is
// lossless up to the crash point, and any entry the lost records described
// is rediscovered by the fallback scan or simply re-published. A journal in
// the pre-Log framing ([op][key][size][crc], 21 bytes) reads as a torn tail
// at offset 0 — its op byte lands in the length prefix, far past
// logMaxRecord — and takes the same scan-and-reseed path.

// Journal payload: [op 1][key 8][size 8].
const (
	journalPayloadSize = 17

	journalOpPut = byte('p')
	journalOpDel = byte('d')
)

type journalRec struct {
	op   byte
	key  uint64
	size int64
}

var errJournalForeign = errors.New("persist: journal holds a record that is not a put or del")

// replayJournal reads the journal and folds its records into an index of
// live keys (key → entry size). It returns the byte offset of the last good
// record's end; anything past it is a torn tail the writer may truncate.
// A missing journal returns an empty index at offset 0; a well-framed record
// that is no journal record means the file is not ours to trust, and is an
// error (the caller scans instead).
func replayJournal(path string) (index map[uint64]int64, goodLen int64, err error) {
	index = map[uint64]int64{}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return index, 0, nil
		}
		return nil, 0, err
	}
	recs, goodLen := decodeLogStream(data)
	for _, b := range recs {
		if len(b) != journalPayloadSize {
			return nil, 0, errJournalForeign
		}
		key := binary.BigEndian.Uint64(b[1:9])
		switch b[0] {
		case journalOpPut:
			index[key] = int64(binary.BigEndian.Uint64(b[9:17]))
		case journalOpDel:
			delete(index, key)
		default:
			return nil, 0, errJournalForeign
		}
	}
	return index, goodLen, nil
}

// openJournalForAppend opens the journal truncated to its last good record,
// ready for appends.
func openJournalForAppend(path string, goodLen int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() != goodLen {
		if err := f.Truncate(goodLen); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// appendJournal appends one record with a single write. Journal appends are
// deliberately not fsynced per record: losing the last few records to a
// crash costs a directory-scan rediscovery (or a redundant re-publish), not
// correctness, and per-record fsync would put a disk flush on the commit
// path of every fragment.
func appendJournal(f *os.File, r journalRec) error {
	if f == nil {
		return nil
	}
	var b [journalPayloadSize]byte
	b[0] = r.op
	binary.BigEndian.PutUint64(b[1:9], r.key)
	binary.BigEndian.PutUint64(b[9:17], uint64(r.size))
	_, err := f.Write(frameLogRecord(b[:]))
	return err
}

// walkObjects calls fn for every file under the sharded objects tree,
// skipping whatever it cannot read.
func walkObjects(dir string, fn func(shardDir string, f os.DirEntry)) {
	shards, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		shDir := filepath.Join(dir, sh.Name())
		files, err := os.ReadDir(shDir)
		if err != nil {
			continue
		}
		for _, f := range files {
			fn(shDir, f)
		}
	}
}

// scanObjects rebuilds the index from the sharded entry layout — the
// recovery path when the journal is unreadable or out of sync with reality.
// Sizes come from file metadata; entry integrity is still verified per-load.
func scanObjects(dir string) map[uint64]int64 {
	index := map[uint64]int64{}
	walkObjects(dir, func(_ string, f os.DirEntry) {
		name := f.Name()
		if !strings.HasSuffix(name, entrySuffix) || strings.HasPrefix(name, tempPattern) {
			return
		}
		key, ok := parseEntryName(name)
		if !ok {
			return
		}
		size := int64(0)
		if fi, err := f.Info(); err == nil {
			size = fi.Size()
		}
		index[key] = size
	})
	return index
}

// sweepTemps removes abandoned temp files (kill -9 between temp write and
// rename) under the objects tree. Only the writer calls it.
func sweepTemps(dir string) {
	walkObjects(dir, func(shDir string, f os.DirEntry) {
		if strings.HasPrefix(f.Name(), tempPattern) {
			os.Remove(filepath.Join(shDir, f.Name()))
		}
	})
}
