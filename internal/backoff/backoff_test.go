package backoff

import (
	"context"
	"testing"
	"time"
)

// TestGrowthAndCap pins the deterministic skeleton: with jitter
// disabled the sequence is base, base*factor, ..., capped at Max.
func TestGrowthAndCap(t *testing.T) {
	p := &Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.Next(); got != w*time.Millisecond {
			t.Fatalf("attempt %d: got %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

// TestJitterBounds verifies jittered delays stay in [d*(1-j), d] and
// actually vary.
func TestJitterBounds(t *testing.T) {
	seen := map[time.Duration]bool{}
	for trial := 0; trial < 50; trial++ {
		p := &Policy{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
		d := p.Next()
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("jittered first delay %v outside [50ms, 100ms]", d)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("jitter produced no variation across 50 fresh policies")
	}
}

// TestZeroValueDefaults: the zero Policy behaves like Default() — 100ms
// base with half-width jitter, 15s cap.
func TestZeroValueDefaults(t *testing.T) {
	p := Default()
	d := p.Next()
	if d < 50*time.Millisecond || d > 100*time.Millisecond {
		t.Fatalf("zero-value first delay %v outside [50ms, 100ms]", d)
	}
	for i := 0; i < 20; i++ {
		d = p.Next()
	}
	if d > 15*time.Second {
		t.Fatalf("delay %v exceeded the 15s default cap", d)
	}
}

// TestReset snaps the sequence back to base.
func TestReset(t *testing.T) {
	p := &Policy{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: -1}
	p.Next()
	p.Next()
	p.Next()
	p.Reset()
	if got := p.Next(); got != 10*time.Millisecond {
		t.Fatalf("after Reset, Next() = %v, want 10ms", got)
	}
}

// TestSleepCancel: a canceled context interrupts the wait promptly.
func TestSleepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- Sleep(ctx, 10*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Sleep returned %v, want context.Canceled", err)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("Sleep took %v to notice cancellation", time.Since(start))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after cancel")
	}
}

// TestSleepZero returns immediately without arming a timer.
func TestSleepZero(t *testing.T) {
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v", err)
	}
}

// TestSleepNext composes: canceled context surfaces through SleepNext.
func TestSleepNext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Policy{Base: time.Hour}
	if err := p.SleepNext(ctx); err != context.Canceled {
		t.Fatalf("SleepNext on canceled ctx = %v, want context.Canceled", err)
	}
}
