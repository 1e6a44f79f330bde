package internet

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"testing"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/quic"
	"quicscan/internal/simnet"
)

// lossy is the adversarial link of the impaired rows: 5 % loss, 30 ms
// ± 10 ms latency and 1 % reordering. It corrupts nothing: a flipped
// bit invalidates a packet rather than delaying it, a different failure
// class from the loss recovery under test.
var lossy = simnet.Profile{Loss: 0.05, Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Reorder: 0.01}

// scanSpec is the universe every row scans: 716 deployments of all
// five behaviours.
var scanSpec = Spec{Seed: 42, Scale: 4096}

// darkAddr has no deployment, so it must stay silent.
var darkAddr = netip.MustParseAddr("100.64.0.1")

// scanRun is one scan of a started universe: every result, and what
// the scanner's transport and the network counted.
type scanRun struct {
	u         *Universe // stopped
	results   []core.Result
	transport quic.TransportStats
	impair    simnet.ImpairmentStats
	// offOracle holds the errors of Expect, and wrong those of them
	// that are not a timeout: loss may silence a target, never change
	// its answer.
	offOracle, wrong []error
}

// scanUniverse builds and starts scanSpec's universe, puts every link
// behind p and scans it: every deployment, with its first domain as
// SNI on every other one so require-SNI deployments are seen both
// ways, and darkAddr. With only >= 0 it scans that one target alone.
// An impaired link gets a per-attempt budget that holds with and
// without the race detector: a single attempt measurably fails under
// lossy, and three retries recover at least 99 % of targets. A clean
// link gets the HTTP/3 exchange and the campaign's 2 s, so that only a
// wrong answer, not a slow host, can take a verdict off the oracle.
func scanUniverse(p simnet.Profile, retries, only int) (scanRun, error) {
	u := Build(scanSpec)
	if err := u.Start(StartOptions{Stateful: true}); err != nil {
		return scanRun{}, err
	}
	defer u.Stop()
	u.Net.SetProfile(p)

	var targets []core.Target
	for i, d := range u.Deployments {
		tg := core.Target{Addr: d.Addr}
		if i%2 == 1 && len(d.Domains) > 0 {
			tg.SNI = d.Domains[0]
		}
		targets = append(targets, tg)
	}
	targets = append(targets, core.Target{Addr: darkAddr})
	if only >= 0 {
		targets = targets[only : only+1]
	}

	clean := p == (simnet.Profile{})
	sc := &core.Scanner{
		DialPacket:   func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:      u.RootCAs(),
		Timeout:      600 * time.Millisecond,
		Retries:      retries,
		RetryBackoff: 50 * time.Millisecond,
		PTO:          150 * time.Millisecond,
		MaxPTOs:      2,
		Workers:      128,
		SkipHTTP:     !clean,
	}
	if clean {
		sc.Timeout = 2 * time.Second
	}
	defer sc.Close()
	run := scanRun{u: u, results: sc.Scan(context.Background(), targets)}
	run.transport, _ = sc.TransportStats()
	run.impair = u.Net.ImpairmentStats()
	for _, r := range run.results {
		if err := u.Expect(r); err != nil {
			run.offOracle = append(run.offOracle, err)
			if r.Outcome != core.OutcomeTimeout {
				run.wrong = append(run.wrong, err)
			}
		}
		if r.Outcome == core.OutcomeSuccess && r.Target.SNI != "" && !r.TLS.CertValid {
			run.wrong = append(run.wrong, fmt.Errorf("%v: certificate for %s did not validate", r.Target.Addr, r.Target.SNI))
		}
	}
	return run, nil
}

// replay names what reproduces a run: the universe, the profile and
// the retries fix every datagram's fate (on the wall clock a PTO may
// still fire early or late, so a run is exact only in a bubble), and
// the first targets off the oracle.
func replay(p simnet.Profile, retries int, errs []error) string {
	return fmt.Sprintf("replay with spec %+v, profile %+v, %d retries; first targets off the oracle: %v",
		scanSpec, p, retries, errs[:min(len(errs), 5)])
}

// TestStatefulScanBehaviours scans every deployment of a universe and
// scores each verdict with Expect, on a clean link and on impaired
// ones. On the clean link every verdict equals the oracle. Loss may
// turn a verdict into a timeout and nothing else; with retries at
// least 99 % of verdicts equal the oracle and some target is recovered
// by a retry, without them fewer do. Corruption surfaces as drops,
// never as a misrouted datagram. SOAK=1 (make soak) adds the loss sweep
// behind EXPERIMENTS.md.
func TestStatefulScanBehaviours(t *testing.T) {
	corrupt := lossy
	corrupt.Corrupt = 0.02
	type scanRow struct {
		name    string
		profile simnet.Profile
		retries int
		// minOracle is the share of verdicts, in percent, that must
		// equal Expect.
		minOracle float64
	}
	rows := []scanRow{
		{"clean", simnet.Profile{}, 0, 100},
		{"loss", lossy, 3, 99},
		{"loss-no-retries", lossy, 0, 0},
		{"corrupt", corrupt, 3, 0},
	}
	if os.Getenv("SOAK") != "" {
		for _, loss := range []float64{0, 0.02, 0.05, 0.10, 0.20} {
			for _, retries := range []int{0, 3} {
				p := lossy
				p.Loss = loss
				rows = append(rows, scanRow{fmt.Sprintf("soak-loss-%g%%-retries-%d", loss*100, retries), p, retries, 0})
			}
		}
	}

	matched := make(map[string]int)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if testing.Short() && row.profile != (simnet.Profile{}) {
				t.Skip("impaired rows skipped in -short mode")
			}
			run, err := scanUniverse(row.profile, row.retries, -1)
			if err != nil {
				t.Fatal(err)
			}
			total := len(run.results)
			matched[row.name] = total - len(run.offOracle)
			t.Logf("%v; %d/%d equal the oracle; transport %+v; impairments %+v",
				core.Summarize(run.results), matched[row.name], total, run.transport, run.impair)
			why := replay(row.profile, row.retries, run.offOracle)
			seen := make(map[Behavior]bool)
			for _, d := range run.u.Deployments {
				seen[d.Behavior] = true
			}
			if len(seen) != 5 {
				t.Errorf("the universe has %d of the five behaviours: %v", len(seen), seen)
			}

			if rate := 100 * float64(matched[row.name]) / float64(total); rate < row.minOracle {
				t.Errorf("%.2f%% of verdicts equal the oracle, want >= %v%%; %s", rate, row.minOracle, why)
			}
			if len(run.wrong) > 0 {
				t.Errorf("%d verdicts are wrong other than by timeout: %v; %s", len(run.wrong), run.wrong[:min(len(run.wrong), 5)], why)
			}
			if run.transport.RoutingMisses != 0 {
				t.Errorf("transport misrouted %d datagrams: %+v; %s", run.transport.RoutingMisses, run.transport, why)
			}
			p, im := row.profile, run.impair
			if p.Loss > 0 && im.Lost == 0 || p.Reorder > 0 && im.Reordered == 0 || p.Corrupt > 0 && im.Corrupted == 0 {
				t.Errorf("the profile was not adversarial: %+v; %s", im, why)
			}
			if row.retries > 0 && row.minOracle > 0 {
				// A row bound to recover shows the recovery: a target
				// that gets its answer only from a retry.
				recovered := 0
				for _, r := range run.results {
					if r.Outcome != core.OutcomeTimeout && r.Attempts > 1 && run.u.Expect(r) == nil {
						recovered++
					}
				}
				if recovered == 0 {
					t.Errorf("no target was recovered by a retry; the no-retry gap is unexplained; %s", why)
				}
			}
		})
	}
	if with, without := matched["loss"], matched["loss-no-retries"]; with > 0 && without >= with {
		t.Errorf("retries did not help: %d verdicts equal the oracle with them, %d without", with, without)
	}
}
