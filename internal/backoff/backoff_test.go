package backoff

import (
	"math"
	"testing"
	"time"
)

func waits(b *Backoff, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = b.Next()
	}
	return out
}

func TestDoublesToMax(t *testing.T) {
	b := New(100 * time.Millisecond)
	ms := time.Millisecond
	want := []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, Max, Max}
	got := waits(&b, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("waits = %v, want %v", got, want)
		}
	}
}

// A base above Max is honoured once: the supervisor's health test opens its
// breaker for an hour and relies on the first window being the whole hour.
func TestBaseAboveMax(t *testing.T) {
	b := New(time.Hour)
	if got := waits(&b, 3); got[0] != time.Hour || got[1] != Max || got[2] != Max {
		t.Fatalf("waits = %v, want [1h %v %v]", got, Max, Max)
	}
}

func TestReset(t *testing.T) {
	b := New(50 * time.Millisecond)
	waits(&b, 4)
	b.Reset()
	if got := waits(&b, 2); got[0] != 50*time.Millisecond || got[1] != 100*time.Millisecond {
		t.Fatalf("after Reset waits = %v, want [50ms 100ms]", got)
	}
}

func TestHugeBaseNeverNegative(t *testing.T) {
	b := New(time.Duration(math.MaxInt64/2 + 1))
	for i, d := range waits(&b, 4) {
		if d <= 0 {
			t.Fatalf("wait %d = %v, want > 0", i, d)
		}
	}
}
