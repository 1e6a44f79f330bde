package quic

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
)

// firstFlightDropPC swallows the first n outgoing datagrams, so the
// handshake only proceeds if the client retransmits its Initial.
type firstFlightDropPC struct {
	net.PacketConn
	remaining atomic.Int32
}

func (d *firstFlightDropPC) WriteTo(b []byte, addr net.Addr) (int, error) {
	if d.remaining.Add(-1) >= 0 {
		return len(b), nil // silently dropped
	}
	return d.PacketConn.WriteTo(b, addr)
}

// TestDroppedFirstFlightRecovered: a handshake whose entire first
// flight is lost must complete via PTO retransmission, and the
// connection stats must record the recovery work.
func TestDroppedFirstFlightRecovered(t *testing.T) {
	scfg, pool := serverConfig(t, "pto.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	pc := &firstFlightDropPC{PacketConn: newUDP(t)}
	pc.remaining.Store(1)
	cfg := clientConfig(pool, "pto.test")
	cfg.PTO = 30 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := Dial(ctx, pc, addr, cfg)
	if err != nil {
		t.Fatalf("handshake did not survive a dropped first flight: %v", err)
	}
	defer conn.Close()
	if st := conn.Stats(); st.Retransmits == 0 {
		t.Errorf("stats = %+v, want Retransmits > 0", st)
	}
}

// TestPTOBudgetFastFail: against a silent target, the handshake must
// abort with ErrHandshakeTimeout once MaxPTOs retransmission rounds
// are exhausted — well before a generous handshake deadline.
func TestPTOBudgetFastFail(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 1})
	defer n.Close()
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Dial(context.Background(), pc,
		net.UDPAddrFromAddrPort(netip.MustParseAddrPort("192.0.2.99:443")), &Config{
			HandshakeTimeout: 30 * time.Second,
			PTO:              20 * time.Millisecond,
			MaxPTOs:          3,
		})
	if !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("err = %v, want ErrHandshakeTimeout", err)
	}
	// Budget: 20+40+80ms of backoff plus the final expiry — the abort
	// must come from the PTO budget, not the 30s deadline.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("fast-fail took %v", elapsed)
	}
}

// TestMaxPTOsNegativeDisablesRetransmission: with retransmission
// disabled and the first flight lost, the handshake must die by
// deadline without ever re-sending.
func TestMaxPTOsNegativeDisablesRetransmission(t *testing.T) {
	scfg, pool := serverConfig(t, "pto.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	pc := &firstFlightDropPC{PacketConn: newUDP(t)}
	pc.remaining.Store(1)
	cfg := clientConfig(pool, "pto.test")
	cfg.PTO = 20 * time.Millisecond
	cfg.MaxPTOs = -1
	cfg.HandshakeTimeout = 400 * time.Millisecond
	conn, err := Dial(context.Background(), pc, addr, cfg)
	if err == nil {
		conn.Close()
		t.Fatal("handshake succeeded without retransmission despite a dropped first flight")
	}
	if !errors.Is(err, ErrHandshakeTimeout) {
		t.Errorf("err = %v, want ErrHandshakeTimeout", err)
	}
}

// handshakeGatePC hides every Handshake packet from the client until
// the client has sent one itself: the server's flight is lost however
// often it is retransmitted, as when it goes to an address the client's
// socket no longer has.
type handshakeGatePC struct {
	net.PacketConn
	open atomic.Bool
}

func isHandshakePacket(b []byte) bool {
	hdr, _, err := quicwire.ParseLongHeader(b)
	return err == nil && hdr.Type == quicwire.PacketHandshake
}

func (g *handshakeGatePC) WriteTo(b []byte, addr net.Addr) (int, error) {
	if isHandshakePacket(b) {
		g.open.Store(true)
	}
	return g.PacketConn.WriteTo(b, addr)
}

func (g *handshakeGatePC) ReadFrom(b []byte) (int, net.Addr, error) {
	for {
		n, addr, err := g.PacketConn.ReadFrom(b)
		if err != nil || g.open.Load() || !isHandshakePacket(b[:n]) {
			return n, addr, err
		}
	}
}

// TestClientProbesForALostServerFlight: once the server has
// acknowledged its Initial, the client has nothing left to retransmit.
// If the server's Handshake flight never arrives, only a probe from the
// client can unblock the handshake (RFC 9002, Section 6.2.2.1), and the
// ACKs the server sends for those probes must not postpone its own
// retransmission.
func TestClientProbesForALostServerFlight(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 1})
	defer n.Close()
	scfg, pool := serverConfig(t, "pto.test")
	scfg.PTO = 150 * time.Millisecond
	spc, err := n.ListenUDP(simServerAddr)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serveEcho(t, spc, scfg, ServerPolicy{})

	cpc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	pc := &handshakeGatePC{PacketConn: cpc}
	cfg := clientConfig(pool, "pto.test")
	cfg.PTO = 30 * time.Millisecond
	conn, err := Dial(context.Background(), pc, addr, cfg)
	if err != nil {
		t.Fatalf("handshake did not survive a lost server flight: %v", err)
	}
	conn.Close()
}
