package quic

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

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
	// the close below leaves nothing unroutable in flight.
	time.Sleep(300 * time.Millisecond)
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
// fast with ErrTransportClosed.
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
	if !errors.Is(err, ErrTransportClosed) {
		t.Errorf("err = %v, want ErrTransportClosed", err)
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

// TestDrainingSetExpiry exercises a route shard's expireDrainingLocked
// directly: the draining set is bounded by the per-shard hard cap under
// fast churn, every tombstone the cap pushes out early is counted,
// entries past the draining period are removed (and not counted), and
// expiry is driven from the front of the retirement-ordered queue (no
// full-map sweep).
func TestDrainingSetExpiry(t *testing.T) {
	sh := &routeShard{}
	evicted := 0
	park := func(i int, at time.Duration) {
		evicted += sh.parkLocked(testKey(i), at, drainingPeriod)
	}

	// Fast churn: 3*maxDrainingPerShard retirements inside one draining
	// period must stay capped, evicting oldest-first.
	for i := 0; i < 3*maxDrainingPerShard; i++ {
		park(i, time.Duration(i)*time.Microsecond)
	}
	if got := len(sh.draining); got > maxDrainingPerShard {
		t.Errorf("draining set size = %d, want <= %d", got, maxDrainingPerShard)
	}
	if _, ok := sh.draining[testKey(0)]; ok {
		t.Error("oldest entry survived cap eviction")
	}
	if _, ok := sh.draining[testKey(3*maxDrainingPerShard-1)]; !ok {
		t.Error("newest entry was evicted")
	}
	if evicted != 2*maxDrainingPerShard {
		t.Errorf("cap evictions reported = %d, want %d", evicted, 2*maxDrainingPerShard)
	}

	// Time-based expiry: everything parked above is older than the
	// draining period relative to a later retirement.
	fresh := 3 * maxDrainingPerShard
	park(fresh, drainingPeriod+time.Second)
	if got := len(sh.draining); got != 1 {
		t.Errorf("draining set size after period elapsed = %d, want 1 (only the fresh entry)", got)
	}
	if _, ok := sh.draining[testKey(fresh)]; !ok {
		t.Error("fresh entry missing after expiry pass")
	}
	if evicted != 2*maxDrainingPerShard {
		t.Errorf("expiry counted as eviction: %d evictions, want %d", evicted, 2*maxDrainingPerShard)
	}
	if sh.drainHead != 0 || len(sh.drainQ) != 1 {
		t.Errorf("queue not compacted: head=%d len=%d, want 0/1", sh.drainHead, len(sh.drainQ))
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
	// Each start opens the endpoint under test and a peer socket that
	// can reach it; a client's returns its Transport.
	cases := []struct {
		name  string
		role  *role
		start func(t *testing.T) (at net.Addr, peer net.PacketConn, tr *Transport)
	}{
		{"client", &clientRole, func(t *testing.T) (net.Addr, net.PacketConn, *Transport) {
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
		}},
		{"server-simnet", &serverRole, func(t *testing.T) (net.Addr, net.PacketConn, *Transport) {
			n := simnet.New(simnet.Config{})
			t.Cleanup(n.Close)
			pc, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.9:443"))
			if err != nil {
				t.Fatal(err)
			}
			scfg, _ := serverConfig(t, "drops.test")
			if _, err := Listen(pc, scfg, ServerPolicy{}); err != nil {
				t.Fatal(err)
			}
			peer, err := n.DialUDP()
			if err != nil {
				t.Fatal(err)
			}
			return pc.LocalAddr(), peer, nil
		}},
		{"server-kernel", &serverRole, func(t *testing.T) (net.Addr, net.PacketConn, *Transport) {
			scfg, _ := serverConfig(t, "drops.test")
			_, addr := listenBare(t, scfg, ServerPolicy{})
			peer := newUDP(t)
			t.Cleanup(func() { peer.Close() })
			return addr, peer, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counters := []*telemetry.Counter{tc.role.empty, tc.role.badHeader, tc.role.shortHeader, tc.role.noRoute}
			before := make([]uint64, len(counters))
			for i, c := range counters {
				before[i] = c.Value()
			}
			moved := func() (sum uint64) {
				for i, c := range counters {
					sum += c.Value() - before[i]
				}
				return sum
			}
			at, peer, tr := tc.start(t)
			for _, d := range datagrams {
				if _, err := peer.WriteTo(d.data, at); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for moved() < uint64(len(datagrams)) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // room for a count past the four
			for i, d := range datagrams {
				if got := counters[i].Value() - before[i]; got != 1 {
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
