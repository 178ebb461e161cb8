package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestLogRoundTripAndTornTail pins the generic log's crash contract: records
// replay in append order across reopen, a torn tail (half-written record) is
// dropped and truncated away, and appends after recovery land cleanly.
func TestLogRoundTripAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.log")
	l, recs, err := OpenLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a record header with no payload.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen for append: replay sees exactly the good records, the tail
	// is truncated, and new records land after the old.
	l, recs, err = OpenLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || string(recs[0]) != "rec-0" || string(recs[4]) != "rec-4" {
		t.Fatalf("replay after torn tail = %d records (%q...)", len(recs), recs)
	}
	if err := l.Append([]byte("rec-5")); err != nil {
		t.Fatal(err)
	}
	if n := l.Records(); n != 6 {
		t.Fatalf("Records() = %d, want 6", n)
	}
	l.Close()
	l, recs, err = OpenLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(recs) != 6 || string(recs[5]) != "rec-5" {
		t.Fatalf("final replay = %d records", len(recs))
	}
}

// TestLogFaultSites asserts the persist:log-* faultinject sites gate opens
// and appends like every other persist site.
func TestLogFaultSites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.log")
	boom := fmt.Errorf("injected")
	hook := func(site string) error {
		if site == SiteLogAppend {
			return boom
		}
		return nil
	}
	l, _, err := OpenLog(path, Options{FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("append survived injected fault")
	}
	l.Close()
	if _, _, err := OpenLog(path, Options{FaultHook: func(string) error { return boom }}); err == nil {
		t.Fatal("open survived injected fault")
	}
}
