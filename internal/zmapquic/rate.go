package zmapquic

import (
	"context"
	"sync"
	"time"
)

// Limiter is the token bucket every probe of a scan draws from: one per
// ScanAddrs call, one per campaign shared by all of its workers, so the
// configured rate is a global budget — the ZMap-style ethical ceiling —
// however many goroutines send. Refill is computed from elapsed wall
// time on each draw, in floating point, so no rate truncates (1999/s
// accrues 1.999 tokens per millisecond). The bucket starts full and
// holds 10 ms of budget: at least one token, and at most two send
// batches, since at very high rates 10 ms would admit thousands of
// probes back to back. That burst absorbs scheduler jitter without
// letting the long-run rate drift. A nil Limiter is unlimited.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewLimiter returns a limiter paced at rate tokens per second, or nil
// (unlimited) for rate <= 0.
func NewLimiter(rate int) *Limiter {
	if rate <= 0 {
		return nil
	}
	burst := float64(rate) / 100
	if burst < 1 {
		burst = 1
	}
	if m := float64(2 * SendBatchSize); burst > m {
		burst = m
	}
	return &Limiter{rate: float64(rate), burst: burst, tokens: burst, last: time.Now()}
}

// take refills the bucket and takes a token if one is there; otherwise
// it returns how long until one will be.
func (l *Limiter) take() (ok bool, wait time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	if l.tokens >= 1 {
		l.tokens--
		return true, 0
	}
	return false, time.Duration((1 - l.tokens) / l.rate * float64(time.Second))
}

// tryTake takes a token if one is available now and never blocks. A
// batching sender uses it to tell "keep filling the batch" from "paced:
// flush what is buffered, then Wait".
func (l *Limiter) tryTake() bool {
	if l == nil {
		return true
	}
	ok, _ := l.take()
	return ok
}

// Wait blocks until a token is available or ctx is done.
func (l *Limiter) Wait(ctx context.Context) error {
	if l == nil {
		return nil
	}
	for {
		ok, wait := l.take()
		if ok {
			return nil
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
}
