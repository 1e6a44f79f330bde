package fingerprint

import (
	"context"
	"crypto/tls"
	"net"
	"net/netip"
	"testing"
	"time"

	"quicscan/internal/certgen"
	"quicscan/internal/internet"
	"quicscan/internal/probe"
	"quicscan/internal/quic"
)

// conformanceWeek is any week at which every blueprint advertises at
// least one IETF version the prober offers (draft-29 everywhere).
const conformanceWeek = 18

// startProfileListener brings up a real loopback listener configured
// exactly as the simulated Internet would configure a deployment of
// this profile — same ListenerSetup path, only the socket and
// certificate differ.
func startProfileListener(t *testing.T, p *internet.Profile) netip.AddrPort {
	t.Helper()
	ca, err := certgen.NewCA("fp-conformance")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: []string{"fp.test"}})
	if err != nil {
		t.Fatal(err)
	}
	d := &internet.Deployment{
		Provider:    p.Name,
		Profile:     p,
		Behavior:    internet.BehaviorActive,
		ZMapVisible: true,
		TPConfig:    p.TPConfigOf(0),
	}
	cfg, policy := d.ListenerSetup(conformanceWeek, &tls.Config{
		Certificates: []tls.Certificate{cert},
		NextProtos:   []string{"h3", "h3-34", "h3-32", "h3-29", "h3-28", "h3-27"},
	})
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l, err := quic.Listen(pc, cfg, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return netip.MustParseAddrPort(pc.LocalAddr().String())
}

func testProber() *Prober {
	// Generous waits: the suite runs all profiles in parallel under
	// -race, and a starved scenario goroutine must not read as
	// "silent".
	return &Prober{
		Dialer: probe.Dialer{
			DialPacket: func() (net.PacketConn, error) {
				return net.ListenPacket("udp", "127.0.0.1:0")
			},
			HandshakeTimeout: 4 * time.Second,
		},
		ProbeWait: 600 * time.Millisecond,
		PingWait:  2 * time.Second,
	}
}

// sigFor returns the database row for an implementation blueprint.
func sigFor(t *testing.T, name string) Matrix {
	t.Helper()
	for _, s := range defaultDB() {
		if s.Name == name {
			return s.M
		}
	}
	t.Fatalf("no signature for %q", name)
	return Matrix{}
}

// TestConformanceMatrix is the ground-truth alignment proof: for every
// implementation blueprint in the simulated Internet, a live loopback
// deployment must produce, scenario by scenario, exactly the response
// matrix row its signature claims — including the "no response" cells
// and the close-with-specific-error-code cells — and must classify
// exactly.
func TestConformanceMatrix(t *testing.T) {
	for _, p := range internet.AllProfiles() {
		t.Run(p.Impl, func(t *testing.T) {
			t.Parallel()
			addr := startProfileListener(t, p)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res := testProber().Fingerprint(ctx, probe.Target{Addr: addr, SNI: "fp.test"})
			want := sigFor(t, p.Impl)
			for _, s := range scenarios() {
				s := s
				t.Run(s.String(), func(t *testing.T) {
					if res.Matrix[s] != want[s] {
						t.Errorf("scenario %s: got cell %q, want %q", s, res.Matrix[s], want[s])
					}
				})
			}
			if !res.Verdict.Exact || res.Verdict.Name != p.Impl {
				t.Errorf("verdict: got %+v, want exact %q\n matrix: %s", res.Verdict, p.Impl, res.Matrix)
			}
		})
	}
}
