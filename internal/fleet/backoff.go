package fleet

import (
	"context"
	"time"

	"verikern/internal/measure"
)

// Backoff is the fleet's shared jittered exponential backoff: doubling
// from Base to Cap, with each sleep drawn uniformly from [d/2, d) by a
// seeded splitmix64 stream — deterministic for a given seed, decorrelated
// across workers. ProcSet's respawn loop and RunWorkerLoop's reconnect
// loop both use it, so a crash-looping worker binary backs off instead
// of hammering the coordinator.
type Backoff struct {
	// Base is the first delay; Cap bounds the doubling.
	Base time.Duration
	Cap  time.Duration

	cur time.Duration
	rng uint64
}

// NewBackoff returns a backoff seeded for jitter. Zero Base and Cap
// default to 100ms and 5s.
func NewBackoff(base, cap time.Duration, seed uint64) *Backoff {
	return &Backoff{Base: base, Cap: cap, rng: measure.SplitMix64(seed)}
}

// Next returns the next jittered delay and advances the schedule.
func (b *Backoff) Next() time.Duration {
	base := b.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	lim := b.Cap
	if lim <= 0 {
		lim = 5 * time.Second
	}
	if b.cur <= 0 {
		b.cur = base
	}
	d := b.cur
	if d > lim {
		d = lim
	}
	b.cur = d * 2
	b.rng = measure.SplitMix64(b.rng)
	// Uniform in [d/2, d): full decorrelation while keeping the
	// doubling envelope.
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(b.rng%uint64(half))
}

// Reset rewinds the schedule to Base — call it after a healthy run so
// one old crash doesn't tax the next reconnect.
func (b *Backoff) Reset() { b.cur = 0 }

// Sleep blocks for the next delay or until ctx is cancelled; it
// reports whether the full delay elapsed.
func (b *Backoff) Sleep(ctx context.Context) bool {
	t := time.NewTimer(b.Next())
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
