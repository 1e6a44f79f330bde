package quic

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"quicscan/internal/certgen"
	"quicscan/internal/simnet"
)

// lossyWorld builds a simnet with the given packet loss probability
// and a QUIC echo server on it.
func lossyWorld(t *testing.T, loss float64, seed uint64) (*simnet.Network, *Listener, *x509.CertPool) {
	t.Helper()
	n := simnet.New(simnet.Config{Profile: simnet.Profile{Loss: loss}, Seed: seed})
	t.Cleanup(n.Close)

	ca, err := certgen.NewCA("loss-ca")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: []string{"lossy.test"}})
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	ca.AddToPool(pool)

	pc, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen(pc, &Config{
		TLS: &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"h3"}},
		PTO: 40 * time.Millisecond,
	}, ServerPolicy{}, func(conn *Conn) {
		ctx := context.Background()
		for {
			s, err := conn.AcceptStream(ctx)
			if err != nil {
				return
			}
			go func(s *Stream) {
				data, err := io.ReadAll(s)
				if err != nil {
					return
				}
				s.Write(data)
				s.Close()
			}(s)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return n, l, pool
}

// TestHandshakeUnderLoss completes handshakes and an echo exchange
// with 15% packet loss, exercising PTO-driven retransmission of
// CRYPTO and STREAM frames in both directions.
func TestHandshakeUnderLoss(t *testing.T) {
	succeeded := 0
	const attempts = 8
	for i := 0; i < attempts; i++ {
		func() {
			n, l, pool := lossyWorld(t, 0.15, uint64(i)+100)
			cpc, err := n.DialUDP()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
			defer cancel()
			conn, err := Dial(ctx, cpc, l.Addr(), &Config{
				TLS:              &tls.Config{RootCAs: pool, ServerName: "lossy.test", NextProtos: []string{"h3"}},
				HandshakeTimeout: 8 * time.Second,
				PTO:              40 * time.Millisecond,
			})
			if err != nil {
				t.Logf("attempt %d: handshake failed under loss: %v", i, err)
				return
			}
			defer conn.Close()

			s, err := conn.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("lossy-data-"), 200)
			s.Write(payload)
			s.Close()
			echoed, err := s.ReadAll(ctx)
			if err != nil {
				t.Logf("attempt %d: echo failed: %v", i, err)
				return
			}
			if !bytes.Equal(echoed, payload) {
				t.Errorf("attempt %d: echo corrupted (%d of %d bytes)", i, len(echoed), len(payload))
				return
			}
			succeeded++
		}()
	}
	// With PTO retransmission, the vast majority of attempts must
	// survive 15% loss; require at least 6 of 8.
	if succeeded < 6 {
		t.Errorf("only %d/%d attempts survived 15%% loss", succeeded, attempts)
	}
	t.Logf("%d/%d attempts succeeded under 15%% loss", succeeded, attempts)
}

// TestHandshakeUnderHeavyLossTimesOutCleanly: at near-total loss the
// dial must fail with a timeout, not hang or panic.
func TestHandshakeUnderHeavyLossTimesOutCleanly(t *testing.T) {
	n, l, pool := lossyWorld(t, 0.98, 7)
	cpc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Dial(context.Background(), cpc, l.Addr(), &Config{
		TLS:              &tls.Config{RootCAs: pool, ServerName: "lossy.test", NextProtos: []string{"h3"}},
		HandshakeTimeout: 500 * time.Millisecond,
		PTO:              50 * time.Millisecond,
	})
	if err == nil {
		t.Skip("handshake miraculously survived 98% loss")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

// TestDuplicatedDatagrams: every datagram delivered twice must not
// confuse the state machines (duplicate suppression via packet
// numbers).
func TestDuplicatedDatagrams(t *testing.T) {
	scfg, pool := serverConfig(t, "dup.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	inner := newUDP(t)
	dup := &duplicatingPC{PacketConn: inner}
	conn, err := Dial(context.Background(), dup, addr, clientConfig(pool, "dup.test"))
	if err != nil {
		t.Fatalf("Dial with duplication: %v", err)
	}
	defer conn.Close()
	s, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	s.Write([]byte("once"))
	s.Close()
	resp, err := io.ReadAll(s)
	if err != nil || string(resp) != "ONCE" {
		t.Errorf("echo = %q, %v", resp, err)
	}
}

// duplicatingPC sends every outgoing datagram twice.
type duplicatingPC struct{ net.PacketConn }

func (d *duplicatingPC) WriteTo(b []byte, addr net.Addr) (int, error) {
	d.PacketConn.WriteTo(b, addr)
	return d.PacketConn.WriteTo(b, addr)
}
