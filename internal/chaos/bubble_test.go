//go:build goexperiment.synctest

package chaos

import (
	"context"
	"fmt"
	"testing"
	"testing/synctest"

	"quicscan/internal/core"
	"quicscan/internal/simnet"
)

// Inside a synctest bubble the clock moves only when every goroutine is
// blocked, so time is exact and an impaired scan is a function of its
// seed. These tests hold that: two runs of one world agree on every
// count and every target, and a target scanned alone in a fresh world
// gets the verdict it got among the others. Build them with
// GOEXPERIMENT=synctest (scripts/check.sh runs them at -cpu 1,2,4).

const bubblePopulation = 500

var bubbleNet = simnet.Config{Seed: 42, Profile: DefaultProfile()}

// triple is what loss decides about one target.
type triple struct {
	Outcome     core.Outcome
	Attempts    int
	Retransmits int
}

func tripleOf(r core.Result) triple { return triple{r.Outcome, r.Attempts, r.Retransmits} }

// bubbleScan builds the world in a bubble and scans it, or, with only
// >= 0, scans that one target of it.
func bubbleScan(t *testing.T, retries, only int) Report {
	t.Helper()
	var rep Report
	synctest.Run(func() {
		w, err := NewWorld(bubblePopulation, bubbleNet)
		if err != nil {
			t.Error(err)
			return
		}
		defer w.Close()
		if only >= 0 {
			w.Targets = w.Targets[only : only+1]
		}
		rep = w.Scan(context.Background(), chaosScanConfig(retries))
	})
	return rep
}

func TestChaosRepeatsInBubble(t *testing.T) {
	for _, retries := range []int{0, 3} {
		t.Run(fmt.Sprintf("retries=%d", retries), func(t *testing.T) {
			a, b := bubbleScan(t, retries, -1), bubbleScan(t, retries, -1)
			t.Logf("%v, impairments %+v", a.Summary, a.Impair)
			if a.Summary != b.Summary || a.Impair != b.Impair {
				t.Errorf("two runs differ:\n  %v %+v\n  %v %+v", a.Summary, a.Impair, b.Summary, b.Impair)
			}
			differ := 0
			for i := range a.Results {
				if x, y := tripleOf(a.Results[i]), tripleOf(b.Results[i]); x != y {
					if differ++; differ <= 5 {
						t.Errorf("target #%d %v: %+v, then %+v", i, a.Results[i].Target.Addr, x, y)
					}
				}
			}

			replayed, matched := 0, 0
			for i, r := range a.Results {
				want := tripleOf(r)
				if want == (triple{core.OutcomeSuccess, 1, 0}) {
					continue
				}
				replayed++
				solo := bubbleScan(t, retries, i)
				if got := tripleOf(solo.Results[0]); got == want {
					matched++
				} else if replayed-matched <= 5 {
					t.Errorf("target #%d %v alone: %+v, in the world: %+v", i, r.Target.Addr, got, want)
				}
			}
			t.Logf("%d/%d targets replayed alone matched", matched, replayed)
		})
	}
}
