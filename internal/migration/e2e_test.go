package migration_test

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"quicscan/internal/internet"
	"quicscan/internal/migration"
	"quicscan/internal/probe"
	"quicscan/internal/quic"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
)

// TestE2EClassification probes every BehaviorActive deployment of a
// seeded simulated Internet and checks the behavioral migration
// verdict against the deployment's ground-truth quirk. Unlike the
// fingerprint suite there is no distance metric: the three classes
// (supported / disabled / validate-break) are separated by hard
// evidence — traffic resumed, no challenge ever arrived, or a
// challenge arrived and the connection still died — so every verdict
// must be exact, on a clean link and behind 5 % loss, 30 ms ± 10 ms
// latency and 1 % reordering. There a supported verdict is a client
// that survived its rebind because the server validated and promoted
// the new path through the loss.
func TestE2EClassification(t *testing.T) {
	lossy := simnet.Profile{Loss: 0.05, Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Reorder: 0.01}
	for _, row := range []struct {
		name    string
		profile simnet.Profile
	}{
		{"clean", simnet.Profile{}},
		{"lossy", lossy},
	} {
		t.Run(row.name, func(t *testing.T) {
			if testing.Short() && row.profile != (simnet.Profile{}) {
				t.Skip("impaired rows skipped in -short mode")
			}
			classify(t, row.profile)
		})
	}
}

func classify(t *testing.T, profile simnet.Profile) {
	u := internet.Build(internet.Spec{Seed: 2, Scale: 16384, ASScale: 64, DomainScale: 65536, Week: 18})
	if err := u.Start(internet.StartOptions{Stateful: true}); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	u.Net.SetProfile(profile)

	var targets []probe.Target
	var truth []quic.MigrationPolicy
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
		truth = append(truth, d.Profile.Quirks.Migration)
	}
	if len(targets) < 20 {
		t.Fatalf("only %d active deployments at this seed; universe changed?", len(targets))
	}

	// Generous waits: under -race a slow scheduler must not turn a
	// validated migration into a timeout.
	p := &migration.Prober{
		Dialer: probe.Dialer{
			DialPacket:       func() (net.PacketConn, error) { return u.Net.DialUDP() },
			HandshakeTimeout: 4 * time.Second,
		},
		MigrateWait: 4 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	migrations := func() uint64 { return telemetry.Default().Snapshot().Counters["quic_migrations_total"] }
	before := migrations()
	results := p.Scan(ctx, 32, targets, nil)

	for i, r := range results {
		want := truth[i].String()
		if r.Verdict != want {
			t.Errorf("target %s: verdict %q, want %q (tp-disabled=%t challenges=%d err=%q)",
				r.Target.Addr, r.Verdict, want, r.TPDisabled, r.Challenges, r.Err)
		}
		// The honesty bit must mirror the TP-vs-behavior table:
		// cloudflare/akamai advertise the disable honestly,
		// nginx-style deployments do not.
		if r.Verdict == migration.VerdictDisabled && r.Honest != r.TPDisabled {
			t.Errorf("target %s: honest=%t with tp-disabled=%t", r.Target.Addr, r.Honest, r.TPDisabled)
		}
	}
	if after := migrations(); after <= before {
		t.Errorf("no server promoted a migrated path (quic_migrations_total %d -> %d)", before, after)
	}
}

// TestTPOnlyFallback checks the degraded mode for sockets that cannot
// rebind: the verdict reduces to the advertised transport parameter.
func TestTPOnlyFallback(t *testing.T) {
	u := internet.Build(internet.Spec{Seed: 2, Scale: 16384, ASScale: 64, DomainScale: 65536, Week: 18})
	if err := u.Start(internet.StartOptions{Stateful: true}); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()

	var disabled, supported *internet.Deployment
	for _, d := range u.Deployments {
		if d.Behavior != internet.BehaviorActive {
			continue
		}
		switch {
		case disabled == nil && d.TPConfig.DisableActiveMigration:
			disabled = d
		case supported == nil && !d.TPConfig.DisableActiveMigration && d.Profile.Quirks.Migration == quic.MigrationSupported:
			supported = d
		}
	}
	if disabled == nil || supported == nil {
		t.Fatal("universe lacks a TP-disabled or supported active deployment")
	}

	p := &migration.Prober{
		Dialer: probe.Dialer{
			// noRebind hides the simnet socket's Rebind method.
			DialPacket:       func() (net.PacketConn, error) { pc, err := u.Net.DialUDP(); return noRebind{pc}, err },
			HandshakeTimeout: 4 * time.Second,
		},
		MigrateWait: 4 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for _, tc := range []struct {
		d    *internet.Deployment
		want string
	}{
		{disabled, migration.VerdictTPDisabled},
		{supported, migration.VerdictTPAllows},
	} {
		sni := ""
		if len(tc.d.Domains) > 0 {
			sni = tc.d.Domains[0]
		}
		r := p.Probe(ctx, probe.Target{Addr: netip.AddrPortFrom(tc.d.Addr, 443), SNI: sni})
		if r.Verdict != tc.want {
			t.Errorf("target %s: verdict %q, want %q (err=%q)", tc.d.Addr, r.Verdict, tc.want, r.Err)
		}
	}
}

// noRebind wraps a PacketConn, stripping every method except the
// net.PacketConn interface itself.
type noRebind struct{ net.PacketConn }
