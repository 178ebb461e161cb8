// Package backoff is the retry window every breaker and retry loop uses: a
// wait that doubles after every use, up to Max.
package backoff

import "time"

// Max caps every doubled wait.
const Max = 5 * time.Second

// Backoff hands out the waits base, 2·base, 4·base, ... capped at Max.
type Backoff struct {
	base, next time.Duration
}

// New returns a backoff whose first wait is base, even when base is above
// Max.
func New(base time.Duration) Backoff { return Backoff{base: base, next: base} }

// Next returns the current wait and doubles the one after it, capped at Max.
func (b *Backoff) Next() time.Duration {
	d := b.next
	if b.next *= 2; b.next > Max || b.next <= 0 {
		b.next = Max
	}
	return d
}

// Reset starts again from base.
func (b *Backoff) Reset() { b.next = b.base }
