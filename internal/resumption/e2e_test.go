package resumption_test

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"quicscan/internal/internet"
	"quicscan/internal/probe"
	"quicscan/internal/resumption"
)

// TestE2EClassification probes every BehaviorActive deployment of a
// seeded simulated Internet and checks the resumption verdict against
// the deployment's ground-truth quirk. The four classes are separated
// by hard evidence — a ticket arrived or not, early data was accepted
// or not, the resumed handshake shrank its transport parameters — so
// every verdict must be exact.
func TestE2EClassification(t *testing.T) {
	u := internet.Build(internet.Spec{Seed: 2, Scale: 16384, ASScale: 64, DomainScale: 65536, Week: 18})
	if err := u.Start(internet.StartOptions{Stateful: true}); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()

	var targets []probe.Target
	var truth []internet.ResumptionQuirk
	var retryServer []bool
	for _, d := range u.Deployments {
		if d.Behavior != internet.BehaviorActive {
			continue
		}
		sni := ""
		if len(d.Domains) > 0 {
			sni = d.Domains[0]
		}
		targets = append(targets, probe.Target{
			Addr: netip.AddrPortFrom(d.Addr, 443),
			SNI:  sni,
		})
		truth = append(truth, d.Profile.Quirks.Resumption)
		retryServer = append(retryServer, d.Profile.UseRetry || d.Profile.Quirks.Retry != internet.RetryOff)
	}
	if len(targets) < 20 {
		t.Fatalf("only %d active deployments at this seed; universe changed?", len(targets))
	}

	// Generous waits: under -race a slow scheduler must not turn a
	// missed ticket-arrival race into a no-ticket verdict.
	p := &resumption.Prober{
		Dialer: probe.Dialer{
			DialPacket:       func() (net.PacketConn, error) { return u.Net.DialUDP() },
			HandshakeTimeout: 4 * time.Second,
		},
		TicketWait: 4 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	results := p.Scan(ctx, 8, targets, nil)

	for i, r := range results {
		want := truth[i].String()
		if r.Verdict != want {
			t.Errorf("target %s: verdict %q, want %q (ticket=%t resumed=%t 0rtt=%t err=%q)",
				r.Target.Addr, r.Verdict, want, r.TicketIssued, r.Resumed, r.ZeroRTTAccepted, r.Err)
			continue
		}
		// A Retry-validating server that issued a ticket also issued a
		// NEW_TOKEN; the second dial must have skipped the Retry round
		// trip with it.
		if retryServer[i] && r.Verdict != resumption.VerdictNoTicket && !r.TokenReused {
			t.Errorf("target %s: retry server, verdict %q, but NEW_TOKEN was not reused", r.Target.Addr, r.Verdict)
		}
		// Accepted early data means the request flew in the first
		// flight; it must have completed.
		if r.Verdict == resumption.Verdict0RTT && !r.RequestOK {
			t.Errorf("target %s: 0-RTT accepted but the early request failed", r.Target.Addr)
		}
	}
}

// TestNoTicketShortCircuit checks that a ticket-less deployment is
// classified from the first dial alone: the verdict carries no
// resumption facts.
func TestNoTicketShortCircuit(t *testing.T) {
	u := internet.Build(internet.Spec{Seed: 2, Scale: 16384, ASScale: 64, DomainScale: 65536, Week: 18})
	if err := u.Start(internet.StartOptions{Stateful: true}); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()

	var noTicket *internet.Deployment
	for _, d := range u.Deployments {
		if d.Behavior == internet.BehaviorActive && d.Profile.Quirks.Resumption == internet.ResumptionNoTicket {
			noTicket = d
			break
		}
	}
	if noTicket == nil {
		t.Fatal("universe lacks an active no-ticket deployment")
	}

	p := &resumption.Prober{
		Dialer: probe.Dialer{
			DialPacket:       func() (net.PacketConn, error) { return u.Net.DialUDP() },
			HandshakeTimeout: 4 * time.Second,
		},
		TicketWait: 2 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	sni := ""
	if len(noTicket.Domains) > 0 {
		sni = noTicket.Domains[0]
	}
	r := p.Probe(ctx, probe.Target{Addr: netip.AddrPortFrom(noTicket.Addr, 443), SNI: sni})
	if r.Verdict != resumption.VerdictNoTicket {
		t.Fatalf("verdict %q, want %q (err=%q)", r.Verdict, resumption.VerdictNoTicket, r.Err)
	}
	if r.TicketIssued || r.Resumed || r.ZeroRTTAccepted {
		t.Fatalf("no-ticket verdict with resumption facts set: %+v", r)
	}
}
