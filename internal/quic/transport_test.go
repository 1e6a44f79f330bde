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
// fast churn, entries past the draining period are removed, and expiry
// is driven from the front of the retirement-ordered queue (no full-map
// sweep).
func TestDrainingSetExpiry(t *testing.T) {
	sh := &routeShard{}
	now := time.Now()

	park := func(key string, at time.Time) {
		sh.parkLocked(key, at, drainingPeriod)
	}

	// Fast churn: 3*maxDrainingPerShard retirements inside one draining
	// period must stay capped, evicting oldest-first.
	for i := 0; i < 3*maxDrainingPerShard; i++ {
		park(string(rune(i))+"-churn", now.Add(time.Duration(i)*time.Microsecond))
	}
	if got := len(sh.draining); got > maxDrainingPerShard {
		t.Errorf("draining set size = %d, want <= %d", got, maxDrainingPerShard)
	}
	if _, ok := sh.draining[string(rune(0))+"-churn"]; ok {
		t.Error("oldest entry survived cap eviction")
	}
	last := string(rune(3*maxDrainingPerShard-1)) + "-churn"
	if _, ok := sh.draining[last]; !ok {
		t.Error("newest entry was evicted")
	}

	// Time-based expiry: everything parked above is older than the
	// draining period relative to a later retirement.
	later := now.Add(drainingPeriod + time.Second)
	park("fresh", later)
	if got := len(sh.draining); got != 1 {
		t.Errorf("draining set size after period elapsed = %d, want 1 (only the fresh entry)", got)
	}
	if _, ok := sh.draining["fresh"]; !ok {
		t.Error("fresh entry missing after expiry pass")
	}
	if sh.drainHead != 0 || len(sh.drainQ) != 1 {
		t.Errorf("queue not compacted: head=%d len=%d, want 0/1", sh.drainHead, len(sh.drainQ))
	}
}

// TestTransportDropReasons: every datagram the transport cannot deliver
// is counted once, under the reason it was dropped for, and
// Stats().Dropped is the sum of the reasons.
func TestTransportDropReasons(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(pc)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	peer, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.9:443"))
	if err != nil {
		t.Fatal(err)
	}
	reasons := []struct {
		name     string
		counter  *telemetry.Counter
		datagram []byte
	}{
		{"empty", mDroppedEmpty, []byte{}},
		{"bad_header", mDroppedBadHeader, []byte{0xc0, 0, 0}},                    // a long header cut inside its version
		{"short_header", mDroppedShortHeader, []byte{0x40, 1, 2, 3}},             // under a connection ID
		{"no_route", mDroppedNoRoute, append([]byte{0x40}, make([]byte, 24)...)}, // an ID and an address nobody owns
	}
	before := make([]uint64, len(reasons))
	for i, r := range reasons {
		before[i] = r.counter.Value()
	}
	for _, r := range reasons {
		if _, err := peer.WriteTo(r.datagram, pc.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().Dropped < uint64(len(reasons)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := tr.Stats().Dropped; got != uint64(len(reasons)) {
		t.Errorf("Stats().Dropped = %d, want %d", got, len(reasons))
	}
	for i, r := range reasons {
		if got := r.counter.Value() - before[i]; got != 1 {
			t.Errorf("quic_dropped_datagrams_total{reason=%q} moved by %d, want 1", r.name, got)
		}
	}
}
