package quic

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
)

// TestTransportMuxesConcurrentHandshakes drives 256 concurrent
// handshakes through a 4-socket pool and asserts the routing stats:
// every datagram reaches its connection by connection ID, with no
// misses and no drops.
func TestTransportMuxesConcurrentHandshakes(t *testing.T) {
	const (
		poolSize = 4
		dials    = 256
	)
	n, l, pool := lossyWorld(t, 0, 1)

	socks := make([]net.PacketConn, 0, poolSize)
	for i := 0; i < poolSize; i++ {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		socks = append(socks, pc)
	}
	tr, err := NewTransport(socks...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	cfg := &Config{
		TLS:              &tls.Config{RootCAs: pool, ServerName: "lossy.test", NextProtos: []string{"h3"}},
		HandshakeTimeout: 20 * time.Second,
	}
	conns := make([]*Conn, dials)
	errs := make([]error, dials)
	var wg sync.WaitGroup
	for i := 0; i < dials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conns[i], errs[i] = tr.Dial(context.Background(), l.Addr(), cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}

	st := tr.Stats()
	if st.Sockets != poolSize {
		t.Errorf("Sockets = %d, want %d", st.Sockets, poolSize)
	}
	if st.ActiveConns != dials {
		t.Errorf("ActiveConns = %d, want %d", st.ActiveConns, dials)
	}
	if st.Dials != dials {
		t.Errorf("Dials = %d, want %d", st.Dials, dials)
	}
	if st.RoutingMisses != 0 {
		t.Errorf("RoutingMisses = %d, want 0", st.RoutingMisses)
	}
	if st.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", st.Dropped)
	}
	if st.DatagramsIn == 0 || st.DatagramsOut == 0 {
		t.Errorf("no traffic counted: in=%d out=%d", st.DatagramsIn, st.DatagramsOut)
	}

	// Let post-handshake tail traffic (HANDSHAKE_DONE, acks) settle so
	// the close below leaves nothing unroutable in flight: once a
	// connection's PING and everything it sent before are acknowledged,
	// the server has handled the client's last flight and the client the
	// server's, which left before the acknowledgement on an in-order link.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.Ping(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	for _, c := range conns {
		c.Close()
	}
	st = tr.Stats()
	if st.ActiveConns != 0 {
		t.Errorf("ActiveConns after close = %d, want 0", st.ActiveConns)
	}
	if st.RoutingMisses != 0 || st.Dropped != 0 {
		t.Errorf("after close: misses=%d dropped=%d, want 0/0", st.RoutingMisses, st.Dropped)
	}
}

// TestTransportDialFailureUnregisters: a failed handshake must leave no
// routing state behind.
func TestTransportDialFailureUnregisters(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(pc)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// 192.0.2.9:443 has no socket bound: the Initial is blackholed and
	// the dial times out.
	blackhole := net.UDPAddrFromAddrPort(netip.MustParseAddrPort("192.0.2.9:443"))
	_, err = tr.Dial(context.Background(), blackhole, &Config{HandshakeTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to blackhole succeeded")
	}
	if st := tr.Stats(); st.ActiveConns != 0 {
		t.Errorf("ActiveConns = %d after failed dial, want 0", st.ActiveConns)
	}
}

// TestTransportDialAfterClose: dialing through a closed transport fails
// fast with errTransportClosed.
func TestTransportDialAfterClose(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(pc)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	addr := net.UDPAddrFromAddrPort(netip.MustParseAddrPort("192.0.2.9:443"))
	_, err = tr.Dial(context.Background(), addr, &Config{HandshakeTimeout: time.Second})
	if !errors.Is(err, errTransportClosed) {
		t.Errorf("err = %v, want errTransportClosed", err)
	}
}

// TestDialCompatOwnsSocket: the compatibility Dial takes ownership of
// the caller's socket and closes it on both the failure path and when
// the connection closes — the old contradictory caller-must-close rule
// is gone.
func TestDialCompatOwnsSocket(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)

	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	before := n.UDPSocketCount()
	blackhole := net.UDPAddrFromAddrPort(netip.MustParseAddrPort("192.0.2.9:443"))
	_, err = Dial(context.Background(), pc, blackhole, &Config{HandshakeTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to blackhole succeeded")
	}
	if got := n.UDPSocketCount(); got != before-1 {
		t.Errorf("socket count after failed Dial = %d, want %d (socket must be closed)", got, before-1)
	}
}

// TestTransportDropReasons: both roles apply one receive rule. Every
// datagram an endpoint cannot deliver is counted once, under the reason
// it was dropped for — a client under quic_dropped_datagrams_total, a
// server under quic_listener_drops_total, whether its socket pushes
// (simnet) or is pumped (kernel UDP) — and a Transport's
// Stats().Dropped is the sum of the reasons.
func TestTransportDropReasons(t *testing.T) {
	datagrams := []struct {
		name string
		data []byte
	}{
		{"empty", []byte{}},
		{"bad_header", []byte{0xc0, 0, 0}},                      // a long header cut inside its version
		{"short_header", []byte{0x40, 1, 2, 3}},                 // under a connection ID
		{"no_route", append([]byte{0x40}, make([]byte, 24)...)}, // an ID and an address nobody owns
	}
	// A server answers a forced-negotiation probe with Version
	// Negotiation; the peer reading it knows the server has handled
	// every datagram sent before it.
	answered := func(t *testing.T, at net.Addr, peer net.PacketConn, _ *Transport) {
		if _, err := peer.WriteTo(buildProbe(t, quicwire.MinInitialSize), at); err != nil {
			t.Fatal(err)
		}
		peer.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, _, err := peer.ReadFrom(make([]byte, 1500)); err != nil {
			t.Fatalf("no Version Negotiation after the four: %v", err)
		}
	}
	// Each start opens the endpoint under test and a peer socket that
	// can reach it; a client's returns its Transport. last sends a fifth
	// datagram that is no drop, and returns once the endpoint has
	// handled it: an endpoint routes a socket's datagrams in the order
	// they arrive, so by then every count the four make is in.
	cases := []struct {
		name, family string
		start        func(t *testing.T) (at net.Addr, peer net.PacketConn, tr *Transport)
		last         func(t *testing.T, at net.Addr, peer net.PacketConn, tr *Transport)
	}{
		{"client", "quic_dropped_datagrams_total", func(t *testing.T) (net.Addr, net.PacketConn, *Transport) {
			n := simnet.New(simnet.Config{})
			t.Cleanup(n.Close)
			pc, err := n.DialUDP()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := NewTransport(pc)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			peer, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.9:443"))
			if err != nil {
				t.Fatal(err)
			}
			return pc.LocalAddr(), peer, tr
		}, func(t *testing.T, at net.Addr, peer net.PacketConn, tr *Transport) {
			// A client answers nothing, so the fifth is tail traffic of a
			// connection that has just closed: a late packet.
			id := quicwire.ConnID{7, 7, 7, 7, 7, 7, 7, 7}
			tr.routes.mu.Lock()
			tr.routes.drainLocked(drainHash(id), tr.routes.now())
			tr.routes.mu.Unlock()
			if _, err := peer.WriteTo(append(append([]byte{0x40}, id...), make([]byte, 24)...), at); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the late packet", func() bool { return tr.Stats().LatePackets == 1 })
		}},
		{"server-simnet", "quic_listener_drops_total", func(t *testing.T) (net.Addr, net.PacketConn, *Transport) {
			n := simnet.New(simnet.Config{})
			t.Cleanup(n.Close)
			pc, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.9:443"))
			if err != nil {
				t.Fatal(err)
			}
			scfg, _ := serverConfig(t, "drops.test")
			if _, err := Listen(pc, scfg, ServerPolicy{}, nil); err != nil {
				t.Fatal(err)
			}
			peer, err := n.DialUDP()
			if err != nil {
				t.Fatal(err)
			}
			return pc.LocalAddr(), peer, nil
		}, answered},
		{"server-kernel", "quic_listener_drops_total", func(t *testing.T) (net.Addr, net.PacketConn, *Transport) {
			scfg, _ := serverConfig(t, "drops.test")
			_, addr := listenBare(t, scfg, ServerPolicy{})
			peer := newUDP(t)
			t.Cleanup(func() { peer.Close() })
			return addr, peer, nil
		}, answered},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts := func() (by []uint64) {
				snap := telemetry.Default().Snapshot()
				for _, d := range datagrams {
					by = append(by, snap.Counters[fmt.Sprintf("%s{reason=%q}", tc.family, d.name)])
				}
				return by
			}
			before := counts()
			at, peer, tr := tc.start(t)
			for _, d := range datagrams {
				if _, err := peer.WriteTo(d.data, at); err != nil {
					t.Fatal(err)
				}
			}
			tc.last(t, at, peer, tr)
			after := counts()
			for i, d := range datagrams {
				if got := after[i] - before[i]; got != 1 {
					t.Errorf("reason %q moved by %d, want 1", d.name, got)
				}
			}
			if tr != nil {
				if got := tr.Stats().Dropped; got != uint64(len(datagrams)) {
					t.Errorf("Stats().Dropped = %d, want %d", got, len(datagrams))
				}
			}
		})
	}
}

// TestTargetPicksSocket: a dial leaves from the pool socket its remote
// picks, not the one the dial order reaches, so a target meets the same
// source port (and on an impaired simnet link the same fates) however
// many dials run beside it and in whatever order they start.
func TestTargetPicksSocket(t *testing.T) {
	const poolSize, remotes = 4, 32
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	socks := make([]net.PacketConn, poolSize)
	for i := range socks {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		socks[i] = pc
	}
	tr, err := NewTransport(socks...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Each remote is a bare socket that only notes where Initials come
	// from; every dial times out.
	peers := make([]*simnet.PacketConn, remotes)
	for i := range peers {
		if peers[i], err = n.ListenUDP(netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i)}), 443)); err != nil {
			t.Fatal(err)
		}
	}
	// dialAll dials every remote at once, starting them in an order the
	// seed shuffles, and returns the source each remote saw.
	dialAll := func(seed uint64) []string {
		var wg sync.WaitGroup
		for _, i := range rand.New(rand.NewPCG(seed, seed)).Perm(remotes) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr.Dial(context.Background(), peers[i].LocalAddr(), &Config{HandshakeTimeout: 50 * time.Millisecond})
			}()
		}
		wg.Wait()
		from := make([]string, remotes)
		buf := make([]byte, 2048)
		for i, p := range peers {
			p.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
			for {
				_, src, err := p.ReadFrom(buf)
				if err != nil {
					break
				}
				if from[i] != "" && from[i] != src.String() {
					t.Fatalf("remote %v heard one dial from both %s and %v", p.LocalAddr(), from[i], src)
				}
				from[i] = src.String()
			}
		}
		return from
	}

	first, second := dialAll(1), dialAll(2)
	used := map[string]bool{}
	for i := range first {
		if first[i] == "" || first[i] != second[i] {
			t.Errorf("remote %v: dialed from %q, then from %q", peers[i].LocalAddr(), first[i], second[i])
		}
		used[first[i]] = true
	}
	if len(used) != poolSize {
		t.Errorf("%d remotes used %d of the %d sockets: %v", remotes, len(used), poolSize, first)
	}
}

// TestTransportCloseRacesDialSetUp: a Transport closed while its dials
// are still setting up their connections. A dial's connection is
// reachable from the moment it registers its routes, and Close aborts it
// from there, reading its trace and TLS state under c.mu; so the dial
// sets those under c.mu too. Meaningful under -race, which reports the
// dial's writes against closeLocked's reads when they are unlocked.
func TestTransportCloseRacesDialSetUp(t *testing.T) {
	const (
		rounds = 20
		dials  = 4
	)
	n := simnet.New(simnet.Config{})
	defer n.Close()
	tracer, err := telemetry.NewTracer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Nothing listens there, so no dial completes before Close.
	silent := net.UDPAddrFromAddrPort(netip.MustParseAddrPort("192.0.2.1:443"))
	cfg := &Config{Tracer: tracer, HandshakeTimeout: 5 * time.Second}
	for round := 0; round < rounds; round++ {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTransport(pc)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < dials; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if conn, err := tr.Dial(context.Background(), silent, cfg); err == nil {
					t.Error("a dial to a silent address succeeded")
					conn.Close()
				}
			}()
		}
		// Close as soon as the first connection is reachable, while the
		// others are still registering or setting up.
		for tr.Stats().ActiveConns == 0 {
			runtime.Gosched()
		}
		tr.Close()
		wg.Wait()
	}
}
