// Package backoff implements jittered exponential backoff for retry
// loops that must neither hammer a struggling peer nor synchronize
// their retries into thundering herds. The follower reconnect loop in
// internal/replication is the primary consumer, but the policy is
// generic: Next yields a growing, randomized delay, Reset snaps back to
// the base after a success, and Sleep waits out a delay under a
// context so shutdown never blocks on a pending retry.
package backoff

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy produces the delay sequence. The zero value is usable and
// equivalent to Default(). A Policy is safe for use from one goroutine;
// retry loops own their Policy.
type Policy struct {
	// Base is the first delay (default 100ms).
	Base time.Duration
	// Max caps the grown delay before jitter (default 15s).
	Max time.Duration
	// Factor multiplies the delay per attempt (default 2).
	Factor float64
	// Jitter is the fraction of the grown delay that is randomized
	// (default 0.5): the returned delay is uniform in
	// [d*(1-Jitter), d]. 0 disables jitter; values are clamped to [0, 1].
	Jitter float64

	mu      sync.Mutex
	attempt int
	rng     *rand.Rand
}

// Default returns the policy the replication reconnect loop uses:
// 100ms base, 15s cap, doubling, half-width jitter.
func Default() *Policy { return &Policy{} }

func (p *Policy) defaults() (base, max time.Duration, factor, jitter float64) {
	base, max, factor, jitter = p.Base, p.Max, p.Factor, p.Jitter
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 15 * time.Second
	}
	if factor < 1 {
		factor = 2
	}
	if p.Jitter == 0 && p.Base == 0 && p.Max == 0 && p.Factor == 0 {
		jitter = 0.5 // zero-value Policy gets the default jitter
	}
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	return base, max, factor, jitter
}

// Next returns the delay to wait before the next attempt and advances
// the sequence. The n-th call (0-based) grows the base by Factor^n,
// capped at Max, then subtracts a uniform random slice up to
// Jitter*delay so concurrent retriers spread out.
func (p *Policy) Next() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	base, max, factor, jitter := p.defaults()
	d := float64(base)
	for i := 0; i < p.attempt; i++ {
		d *= factor
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	p.attempt++
	if jitter > 0 {
		if p.rng == nil {
			p.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		d -= p.rng.Float64() * jitter * d
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Reset snaps the sequence back to the base delay. Call it after a
// successful attempt so the next failure starts patient, not paranoid.
func (p *Policy) Reset() {
	p.mu.Lock()
	p.attempt = 0
	p.mu.Unlock()
}

// Sleep waits out d or returns early with ctx.Err() when the context
// is canceled — a retry loop's shutdown must never be blocked by its
// own backoff timer.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SleepNext is the common loop step: Next then Sleep.
func (p *Policy) SleepNext(ctx context.Context) error {
	return Sleep(ctx, p.Next())
}
