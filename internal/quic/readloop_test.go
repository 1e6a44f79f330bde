package quic

import (
	"context"
	"io"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
)

// TestReadLoopTimeoutBound covers the stray-deadline case: an endpoint
// sets no deadlines on its sockets, so an expired deadline left by
// whoever handed the socket in used to make its read loop spin forever
// re-reading the same timeout. The one pump, a Transport's or a
// Listener's, must count a bounded run of timeouts in
// quic_read_timeouts_total and exit, closing its endpoint.
func TestReadLoopTimeoutBound(t *testing.T) {
	readTimeouts := func() uint64 {
		return telemetry.Default().Snapshot().Counters["quic_read_timeouts_total"]
	}
	for _, server := range []bool{false, true} {
		t.Run(map[bool]string{false: "transport", true: "listener"}[server], func(t *testing.T) {
			before := readTimeouts()
			var (
				ep io.Closer
				e  *endpoint
			)
			if server {
				pc := newUDP(t)
				pc.SetReadDeadline(time.Now().Add(-time.Hour))
				scfg, _ := serverConfig(t, "deadline.test")
				var err error
				l, err := Listen(pc, scfg, ServerPolicy{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				ep, e = l, &l.endpoint
			} else {
				n := simnet.New(simnet.Config{})
				defer n.Close()
				pc, err := n.ListenUDP(netip.MustParseAddrPort("198.18.0.99:40000"))
				if err != nil {
					t.Fatal(err)
				}
				pc.SetReadDeadline(time.Now().Add(-time.Hour))
				tr, err := NewTransport(pc)
				if err != nil {
					t.Fatal(err)
				}
				ep, e = tr, &tr.endpoint
			}

			// A loop that gives up closes its endpoint, and it has returned
			// by then (its Done comes before that Close): no timeout is
			// counted after this wait.
			waitFor(t, "the read loop to give up and close its endpoint", func() bool {
				e.routes.mu.Lock()
				defer e.routes.mu.Unlock()
				return e.routes.closed
			})
			e.readWG.Wait()
			if got := readTimeouts() - before; got != maxConsecutiveReadTimeouts {
				t.Errorf("read loop counted %d timeouts before it gave up, want exactly %d",
					got, maxConsecutiveReadTimeouts)
			}

			// Close must not hang on the already-exited loop.
			done := make(chan struct{})
			go func() { ep.Close(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Close hung after the read loop exited")
			}
		})
	}
}

// zonedConn presents every peer of a loopback socket as an IPv6
// link-local address with a zone, the way a real socket reports a
// neighbour on the local link, and refuses to send to that address
// without the zone, as the kernel would.
type zonedConn struct {
	net.PacketConn
	mu       sync.Mutex
	real     map[int]net.Addr // by source port
	unscoped int
}

var zonedPeer = net.ParseIP("fe80::1")

func (z *zonedConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, from, err := z.PacketConn.ReadFrom(b)
	if err != nil {
		return n, from, err
	}
	port := from.(*net.UDPAddr).Port
	z.mu.Lock()
	z.real[port] = from
	z.mu.Unlock()
	return n, &net.UDPAddr{IP: zonedPeer, Port: port, Zone: "zone0"}, nil
}

func (z *zonedConn) WriteTo(b []byte, to net.Addr) (int, error) {
	ua := to.(*net.UDPAddr)
	z.mu.Lock()
	if ua.Zone != "zone0" {
		z.unscoped++
	}
	real := z.real[ua.Port]
	z.mu.Unlock()
	if ua.Zone != "zone0" || real == nil {
		return len(b), nil // no route without the scope: dropped
	}
	return z.PacketConn.WriteTo(b, real)
}

// TestListenerKeepsPeerZone: the listener reads through the pump's
// scratch address; what it hands to a new connection, and
// what it answers to itself (Version Negotiation), must still carry
// the zone the socket reported.
func TestListenerKeepsPeerZone(t *testing.T) {
	cfg, pool := serverConfig(t, "zone.example")
	cfg.Versions = []quicwire.Version{quicwire.VersionDraft29}
	zc := &zonedConn{PacketConn: newUDP(t), real: map[int]net.Addr{}}
	accepted := make(chan *Conn, 1)
	l, err := Listen(zc, cfg, ServerPolicy{}, func(conn *Conn) {
		accepted <- conn
		echoUpper(conn)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ccfg := clientConfig(pool, "zone.example")
	ccfg.Versions = []quicwire.Version{quicwire.Version1, quicwire.VersionDraft29} // first flight draws a Version Negotiation
	conn, err := Dial(ctx, newUDP(t), zc.LocalAddr(), ccfg)
	if err != nil {
		t.Fatalf("dial through a zoned listener socket: %v", err)
	}
	defer conn.Close()
	s, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	s.Write([]byte("scope"))
	s.Close()
	if data, err := io.ReadAll(s); err != nil || string(data) != "SCOPE" {
		t.Fatalf("echo = %q, %v", data, err)
	}
	sc := <-accepted
	if ua, ok := sc.remoteAddr().(*net.UDPAddr); !ok || ua.Zone != "zone0" || !ua.IP.Equal(zonedPeer) {
		t.Errorf("server connection's peer = %v, want fe80::1%%zone0", sc.remoteAddr())
	}
	zc.mu.Lock()
	defer zc.mu.Unlock()
	if zc.unscoped != 0 {
		t.Errorf("%d datagrams were addressed to the peer without its zone", zc.unscoped)
	}
}
