package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// Log is the tree's one torn-tail-tolerant append-only record log, for
// callers that need a replayable sequence of opaque payloads: the serve
// layer's tenant-probe journal rides on the Log type, the store journal
// (journal.go) on its framing. Each record is length-prefixed and
// self-checksummed and is appended with a single write; replay stops at the
// first short or checksum-failing record — a torn tail from a crash
// mid-append — and the writer truncates the tail away before appending
// again. Appends are not fsynced per record: losing the final records of a
// crash costs replaying a slightly older state, never reading a corrupt one.
//
// Record framing: [len 4][crc 4][payload len] with crc over the payload.

const (
	logHeaderSize = 8
	// logMaxRecord bounds one record so a corrupt length prefix reads as a
	// torn tail instead of a giant allocation.
	logMaxRecord = 16 << 20
)

// Log errors.
var errLogClosed = fmt.Errorf("persist: log closed")

// Log is the writer handle. Concurrency-safe; construct with OpenLog.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	recs   int
	hook   func(site string) error
	closed bool
}

// Fault-injection sites for the generic log (persist:* convention).
const (
	SiteLogOpen   = "persist:log-open"
	SiteLogAppend = "persist:log-append"
)

// frameLogRecord returns payload in the on-disk framing.
func frameLogRecord(payload []byte) []byte {
	buf := make([]byte, logHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[logHeaderSize:], payload)
	return buf
}

// decodeLogStream walks records from data, returning the payloads and the
// offset of the last good record's end.
func decodeLogStream(data []byte) (recs [][]byte, goodLen int64) {
	off := 0
	for off+logHeaderSize <= len(data) {
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		if n < 0 || n > logMaxRecord || off+logHeaderSize+n > len(data) {
			break
		}
		payload := data[off+logHeaderSize : off+logHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[off+4:off+8]) {
			break
		}
		recs = append(recs, append([]byte(nil), payload...))
		off += logHeaderSize + n
	}
	return recs, int64(off)
}

// OpenLog opens (creating if absent) a log for appending, replays its
// existing records, and truncates any torn tail. The returned records are in
// append order.
func OpenLog(path string, opts Options) (*Log, [][]byte, error) {
	if err := fault(opts.FaultHook, SiteLogOpen); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("persist: open log: %w", err)
	}
	recs, goodLen := decodeLogStream(data)
	f, err := openJournalForAppend(path, goodLen)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: open log: %w", err)
	}
	return &Log{f: f, recs: len(recs), hook: opts.FaultHook}, recs, nil
}

// Append writes one record with a single write syscall.
func (l *Log) Append(payload []byte) error {
	if len(payload) > logMaxRecord {
		return fmt.Errorf("persist: log record too large (%d bytes)", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if err := fault(l.hook, SiteLogAppend); err != nil {
		return err
	}
	if _, err := l.f.Write(frameLogRecord(payload)); err != nil {
		return fmt.Errorf("persist: log append: %w", err)
	}
	l.recs++
	return nil
}

// Records returns how many records the log holds (replayed + appended).
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// Close syncs and closes the log file. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.f.Sync()
	return l.f.Close()
}
