//go:build goexperiment.synctest

package internet

import (
	"fmt"
	"testing"
	"testing/synctest"

	"quicscan/internal/core"
)

// Inside a synctest bubble the clock moves only when every goroutine is
// blocked, so time is exact and an impaired scan is a function of its
// seed. This test holds that: two scans of the lossy universe agree on
// every count and every target, and a target scanned alone in a fresh
// universe gets the verdict it got among the others. Build it with
// GOEXPERIMENT=synctest (scripts/check.sh runs it at -cpu 1,2,4).

// triple is what loss decides about one target.
type triple struct {
	Outcome     core.Outcome
	Attempts    int
	Retransmits int
}

func tripleOf(r core.Result) triple { return triple{r.Outcome, r.Attempts, r.Retransmits} }

// bubbleScan is scanUniverse under lossy, in a bubble.
func bubbleScan(t *testing.T, retries, only int) scanRun {
	t.Helper()
	var run scanRun
	var err error
	synctest.Run(func() { run, err = scanUniverse(lossy, retries, only) })
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestScanRepeatsInBubble(t *testing.T) {
	for _, retries := range []int{0, 3} {
		t.Run(fmt.Sprintf("retries=%d", retries), func(t *testing.T) {
			a, b := bubbleScan(t, retries, -1), bubbleScan(t, retries, -1)
			t.Logf("%v, impairments %+v", core.Summarize(a.results), a.impair)
			if a.impair != b.impair {
				t.Errorf("two runs differ: impairments %+v, then %+v", a.impair, b.impair)
			}
			differ := 0
			for i := range a.results {
				if x, y := tripleOf(a.results[i]), tripleOf(b.results[i]); x != y {
					if differ++; differ <= 5 {
						t.Errorf("target #%d %v: %+v, then %+v", i, a.results[i].Target.Addr, x, y)
					}
				}
			}

			// A failed target is one loss touched: off the oracle, or
			// answered only after a retry or a retransmission. Silence
			// the oracle expects is not a failure.
			replayed, matched := 0, 0
			for i, r := range a.results {
				want := tripleOf(r)
				if a.u.Expect(r) == nil && (r.Outcome == core.OutcomeTimeout || want.Attempts == 1 && want.Retransmits == 0) {
					continue
				}
				replayed++
				solo := bubbleScan(t, retries, i)
				if got := tripleOf(solo.results[0]); got == want {
					matched++
				} else if replayed-matched <= 5 {
					t.Errorf("target #%d %v alone: %+v, in the universe: %+v", i, r.Target.Addr, got, want)
				}
			}
			t.Logf("%d/%d failed targets replayed alone matched", matched, replayed)
		})
	}
}
