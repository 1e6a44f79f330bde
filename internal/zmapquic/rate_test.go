package zmapquic

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// drain empties a limiter's starting burst, so that what a test times
// afterwards is refill alone.
func drain(l *Limiter) {
	for l.tryTake() {
	}
}

// paced times n tokens drawn with draw from a limiter built by mk and
// returns an error unless they took n/rate ± 5 % of wall time, nothing
// taken off. Two attempts: the refill is wall-clock math, but this
// process can itself be descheduled mid-measurement; only a repeatable
// deviation is a pacing bug.
func paced(mk func() *Limiter, rate, n int, draw func(l *Limiter) error) error {
	expected := time.Duration(float64(n) / float64(rate) * float64(time.Second))
	tol := expected / 20
	var elapsed time.Duration
	for attempt := 0; attempt < 2; attempt++ {
		l := mk()
		drain(l)
		// The first token is untimed: it lands the bucket on empty.
		if err := l.Wait(context.Background()); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := draw(l); err != nil {
				return err
			}
		}
		elapsed = time.Since(start)
		if d := elapsed - expected; -tol <= d && d <= tol {
			return nil
		}
	}
	return fmt.Errorf("rate %d: %d tokens took %v, want %v ±%v", rate, n, elapsed, expected, tol)
}

func waitOne(l *Limiter) error { return l.Wait(context.Background()) }

// TestRateLimiterPacing verifies the limiter's long-run pacing,
// deliberately over rates that are not multiples of 1000/s: a refill
// that truncates to whole tokens per tick paces 1999/s at 1000/s, a
// rate below 1000/s (and below 100/s, where the bucket holds a single
// token) is a rounding path of its own, and one token per sleep at
// 50,000/s is far below what a timer can do. The wall-clock refill must
// keep every rate within ±5%. It is the one limiter of the hitlist loop
// and of the campaign engine (campaign.TestGlobalRateBudget drives it
// from eight workers).
func TestRateLimiterPacing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive pacing test")
	}
	cases := []struct {
		rate int
		n    int // timed tokens, sized for a ~0.7-0.9s window
	}{
		{3, 2},
		{250, 200},
		{999, 800},
		{1001, 800},
		{1999, 1600},
		{50000, 40000},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("rate=%d", tc.rate), func(t *testing.T) {
			mk := func() *Limiter { return NewLimiter(tc.rate) }
			if err := paced(mk, tc.rate, tc.n, waitOne); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRateLimiterPacingRejects turns the oracle on limiters that are
// wrong: paced must refuse one that runs at half the configured rate
// where the bucket holds one token, and one that is 10 % slow where it
// holds two batches. (Slow ones only: a loaded host can slow a fast
// limiter into the window, never a slow one.)
func TestRateLimiterPacingRejects(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive pacing test")
	}
	for _, tc := range []struct {
		name    string
		rate, n int
		scale   float64 // actual rate / configured rate
	}{
		{"half-rate at 3", 3, 2, 0.5},
		{"slow at 50000", 50000, 40000, 0.9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // they mostly sleep, the first for 4 s
			mk := func() *Limiter {
				l := NewLimiter(tc.rate)
				l.rate *= tc.scale
				return l
			}
			if err := paced(mk, tc.rate, tc.n, waitOne); err == nil {
				t.Errorf("a limiter at %.0f %% of rate %d passed the ±5 %% oracle", 100*tc.scale, tc.rate)
			}
		})
	}
}

// TestRateLimiterBurstCap pins the bucket capacity: 10 ms of budget, at
// least one token, never more than two full send batches — at 50000/s
// 10 ms would bank 500 probes for a stalled consumer to blast out at
// once. The cap is read from the field: a loop that drains the bucket
// to count it is refilled while it runs (131-135 tokens counted for a
// cap of 128 under the race detector).
func TestRateLimiterBurstCap(t *testing.T) {
	for _, tc := range []struct {
		rate int
		want float64
	}{
		{5, 1},
		{100, 1},
		{2500, 25},
		{50000, 2 * SendBatchSize},
	} {
		l := NewLimiter(tc.rate)
		if l.burst != tc.want || l.tokens != tc.want {
			t.Errorf("rate %d: burst %v with %v tokens to start, want %v of both", tc.rate, l.burst, l.tokens, tc.want)
		}
	}
	// However long the bucket sits idle, it holds no more than the cap.
	l := NewLimiter(50000)
	l.last = l.last.Add(-time.Minute)
	if !l.tryTake() || l.tokens != l.burst-1 {
		t.Errorf("after an idle minute the bucket held %v tokens, want the cap of %v", l.tokens+1, l.burst)
	}
}

// TestRateLimiterTryWait covers the non-blocking path the batched
// send loop uses to decide between filling and flushing, alone and
// mixed with Wait the way that loop mixes them.
func TestRateLimiterTryWait(t *testing.T) {
	unlimited := NewLimiter(0)
	if unlimited != nil || !unlimited.tryTake() || unlimited.Wait(context.Background()) != nil {
		t.Error("rate 0 is not the nil, unlimited limiter")
	}

	l := NewLimiter(5)
	if !l.tryTake() {
		t.Error("tryTake refused the token a fresh bucket starts with")
	}
	// Empty now, and 200 ms from the next token: tryTake must report
	// pacing pressure without waiting for it.
	start := time.Now()
	if l.tryTake() {
		t.Error("tryTake succeeded on an empty bucket")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("tryTake on an empty bucket took %v", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Wait(ctx); err != context.Canceled {
		t.Errorf("Wait on an empty bucket with a cancelled context: %v", err)
	}

	if testing.Short() {
		return
	}
	// ScanAddrs' pattern: take while tokens last, block for the next.
	mix := func(l *Limiter) error {
		if l.tryTake() {
			return nil
		}
		return l.Wait(context.Background())
	}
	if err := paced(func() *Limiter { return NewLimiter(2000) }, 2000, 1600, mix); err != nil {
		t.Error(err)
	}
}
