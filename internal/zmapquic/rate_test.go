package zmapquic

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// drain empties a limiter's starting burst at the instant of its last
// refill and returns how many tokens it held.
func drain(l *Limiter) int {
	n := 0
	for ok, _ := l.take(l.last); ok; ok, _ = l.take(l.last) {
		n++
	}
	return n
}

// pace draws n tokens from l on a synthetic clock that starts at the
// bucket's last refill and moves only by the waits take asks for (the
// batching sender's pattern: take while tokens last, then wait), and
// returns how far the clock moved.
func pace(l *Limiter, n int) time.Duration {
	start := l.last
	now := start
	for taken := 0; taken < n; {
		ok, wait := l.take(now)
		if ok {
			taken++
			continue
		}
		// A wait under a nanosecond truncates to zero; the clock must
		// still move.
		now = now.Add(max(wait, time.Nanosecond))
	}
	return now.Sub(start)
}

// paced drains a limiter built by mk, then draws n tokens from it on a
// synthetic clock, and returns an error unless the bucket held exactly
// its burst, the n tokens took exactly (n - what the drain left) / rate
// (to the nanosecond per step the clock took) and left it empty.
func paced(mk func() *Limiter, rate, n int) error {
	l := mk()
	burst := NewLimiter(rate).burst
	if got := drain(l); got != int(burst) {
		return fmt.Errorf("rate %d: the bucket held %d tokens, want %d", rate, got, int(burst))
	}
	left := burst - float64(int(burst))
	expected := time.Duration((float64(n) - left) / float64(rate) * float64(time.Second))
	elapsed := pace(l, n)
	if d := elapsed - expected; d < -time.Duration(2*n) || d > time.Duration(2*n) {
		return fmt.Errorf("rate %d: %d tokens took %v, want %v", rate, n, elapsed, expected)
	}
	if ok, _ := l.take(l.last); ok {
		return fmt.Errorf("rate %d: a token was left after %d were drawn", rate, n)
	}
	return nil
}

// TestRateLimiterPacing verifies the limiter's long-run pacing,
// deliberately over rates that are not multiples of 1000/s: a refill
// that truncates to whole tokens per tick paces 1999/s at 1000/s, a
// rate below 1000/s (and below 100/s, where the bucket holds a single
// token) is a rounding path of its own, and 50,000/s is far more tokens
// than a timer can wake for one by one. The limiter runs on a synthetic
// clock, so the token counts are exact on any host. It is the one
// limiter of the hitlist loop and of the campaign engine
// (campaign.TestGlobalRateBudget drives it from eight workers).
func TestRateLimiterPacing(t *testing.T) {
	for _, tc := range []struct{ rate, n int }{
		{3, 2},
		{250, 200},
		{999, 800},
		{1001, 800},
		{1999, 1600},
		{50000, 40000},
	} {
		t.Run(fmt.Sprintf("rate=%d", tc.rate), func(t *testing.T) {
			if err := paced(func() *Limiter { return NewLimiter(tc.rate) }, tc.rate, tc.n); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRateLimiterPacingRejects turns the oracle on limiters that are
// wrong: paced must refuse one that runs at half the configured rate
// where the bucket holds one token, one that is 1 % slow where it holds
// two batches, and one that is 1 % fast.
func TestRateLimiterPacingRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rate, n int
		scale   float64 // actual rate / configured rate
	}{
		{"half-rate at 3", 3, 2, 0.5},
		{"slow at 50000", 50000, 40000, 0.99},
		{"fast at 1999", 1999, 1600, 1.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Limiter {
				l := NewLimiter(tc.rate)
				l.rate *= tc.scale
				return l
			}
			if err := paced(mk, tc.rate, tc.n); err == nil {
				t.Errorf("a limiter at %.0f %% of rate %d passed the oracle", 100*tc.scale, tc.rate)
			}
		})
	}
}

// TestRateLimiterWaitNeverEarly keeps Wait honest on the wall clock,
// with a lower bound only: it never returns before the token it waits
// for has accrued.
func TestRateLimiterWaitNeverEarly(t *testing.T) {
	l := NewLimiter(20) // one token, 50 ms apart
	for l.tryTake() {
	}
	l.mu.Lock()
	from, need := l.last, time.Duration((1-l.tokens)/l.rate*float64(time.Second))
	l.mu.Unlock()
	if err := l.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(from); got < need {
		t.Errorf("Wait returned %v after the bucket emptied, before the %v the next token takes", got, need)
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
// send loop uses to decide between filling and flushing, and Wait's
// way out on a cancelled context (pace covers the two mixed).
func TestRateLimiterTryWait(t *testing.T) {
	unlimited := NewLimiter(0)
	if unlimited != nil || !unlimited.tryTake() || unlimited.Wait(context.Background()) != nil {
		t.Error("rate 0 is not the nil, unlimited limiter")
	}

	l := NewLimiter(5)
	if !l.tryTake() {
		t.Error("tryTake refused the token a fresh bucket starts with")
	}
	// Empty now, and 200 ms from the next token: tryTake reports
	// pacing pressure instead of waiting for it.
	if l.tryTake() {
		t.Error("tryTake succeeded on an empty bucket")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Wait(ctx); err != context.Canceled {
		t.Errorf("Wait on an empty bucket with a cancelled context: %v", err)
	}
}
