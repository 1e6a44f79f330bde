package fingerprint

import (
	"context"
	"flag"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"quicscan/internal/internet"
	"quicscan/internal/probe"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestE2EClassification fingerprints every BehaviorActive deployment
// in a seeded simulated Internet and checks the classification against
// the deployments' ground-truth implementation blueprints: at least
// 95% correct overall, and zero misclassifications between known
// implementations (every signature pair differs in at least two
// cells, so a single corrupted observation degrades to distance 1 or
// abstains — it never lands on the wrong implementation). The full
// confusion matrix is golden-filed; -update rewrites it.
func TestE2EClassification(t *testing.T) {
	u := internet.Build(internet.Spec{Seed: 2, Scale: 16384, ASScale: 64, DomainScale: 65536, Week: 18})
	if err := u.Start(internet.StartOptions{Stateful: true}); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()

	var targets []probe.Target
	var truth []string
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
		truth = append(truth, d.Profile.Impl)
	}
	if len(targets) < 20 {
		t.Fatalf("only %d active deployments at this seed; universe changed?", len(targets))
	}

	// Generous waits: under -race a slow scheduler must not turn a
	// live scenario cell into "silent" and flake the golden diff.
	p := &Prober{
		Dialer: probe.Dialer{
			DialPacket:       func() (net.PacketConn, error) { return u.Net.DialUDP() },
			HandshakeTimeout: 4 * time.Second,
		},
		ProbeWait: 600 * time.Millisecond,
		PingWait:  2 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	results := p.Scan(ctx, 8, targets, nil)

	cm := NewConfusionMatrix()
	for i, r := range results {
		cm.Add(truth[i], r.Verdict.Name)
		if r.Verdict.Name != truth[i] {
			t.Logf("target %s (%s): classified %q at distance %d\n matrix: %s",
				r.Target.Addr, truth[i], r.Verdict.Name, r.Verdict.Distance, r.Matrix)
		}
	}

	if acc := cm.Accuracy(); acc < 0.95 {
		t.Errorf("accuracy %.1f%% (%d/%d), want >= 95%%",
			100*acc, cm.correct(), cm.Total())
	}
	if mis := cm.Misclassified(); mis != 0 {
		t.Errorf("%d targets misclassified as a different known implementation", mis)
	}

	rendered := cm.Render()
	golden := filepath.Join("testdata", "confusion_seed2.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if string(want) != rendered {
		t.Errorf("confusion matrix diverges from golden:\n got:\n%s\n want:\n%s", rendered, want)
	}
}
