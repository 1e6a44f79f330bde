package quic

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
)

// Server connection lifecycle: whatever closes a server connection, the
// Listener's route table forgets it, its connection IDs drain as
// tombstones, and nothing grows with the number of connections served.

// listenBare starts a listener that serves nothing: its connections are
// state in the route table, and tests that need one find it there.
func listenBare(t *testing.T, cfg *Config, policy ServerPolicy) (*Listener, net.Addr) {
	t.Helper()
	return listenServing(t, cfg, policy, nil)
}

func listenServing(t *testing.T, cfg *Config, policy ServerPolicy, serve func(*Conn)) (*Listener, net.Addr) {
	t.Helper()
	pc := newUDP(t)
	l, err := Listen(pc, cfg, policy, serve)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, pc.LocalAddr()
}

// listenHanding starts a listener that hands each connection whose
// handshake completes to the returned channel; handedConn takes the
// next one out.
func listenHanding(t *testing.T, cfg *Config, policy ServerPolicy) (*Listener, net.Addr, <-chan *Conn) {
	t.Helper()
	conns := make(chan *Conn, 64)
	l, addr := listenServing(t, cfg, policy, func(c *Conn) { conns <- c })
	return l, addr, conns
}

func handedConn(t *testing.T, conns <-chan *Conn) *Conn {
	t.Helper()
	select {
	case c := <-conns:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("the listener handed over no connection")
		return nil
	}
}

// soleConn returns the one connection l routes to, once it has one.
func soleConn(t *testing.T, l *Listener) *Conn {
	t.Helper()
	waitFor(t, "the connection to open", func() bool { return l.routes.activeConns() == 1 })
	return l.routes.liveConns()[0]
}

// waitClosed waits for c to close and for its endpoint's retire to
// finish (closeLocked calls it under c.mu, which Err takes).
func waitClosed(t *testing.T, c *Conn) {
	t.Helper()
	select {
	case <-c.Closed():
	case <-time.After(5 * time.Second):
		t.Fatal("connection did not close")
	}
	c.Err()
}

// waitFor polls cond; the conditions here (a peer's CONNECTION_CLOSE
// reaching the server, goroutines winding down) have no channel to
// wait on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// captureInitial returns a client's first flight: one padded Initial
// datagram carrying a complete ClientHello. Sent to a listener from a
// plain socket it opens a server connection whose handshake can never
// finish, because no client is there to answer the server's flight.
func captureInitial(t *testing.T) []byte {
	t.Helper()
	sink, sock := newUDP(t), newUDP(t)
	defer sink.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if c, err := Dial(context.Background(), sock, sink.LocalAddr(),
			&Config{HandshakeTimeout: 50 * time.Millisecond, MaxPTOs: -1}); err == nil {
			c.Close()
		}
	}()
	buf := make([]byte, 2048)
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _, err := sink.ReadFrom(buf)
	<-done
	if err != nil {
		t.Fatalf("capturing a client Initial: %v", err)
	}
	return buf[:n]
}

// readNothing asserts that no datagram arrives on pc for a short while.
func readNothing(t *testing.T, pc net.PacketConn, what string) {
	t.Helper()
	pc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, _, err := pc.ReadFrom(make([]byte, 2048)); err == nil {
		t.Errorf("%s elicited a %d-byte answer, want silence", what, n)
	}
}

// drain discards whatever is queued on pc.
func drain(pc net.PacketConn) {
	buf := make([]byte, 2048)
	for {
		pc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, _, err := pc.ReadFrom(buf); err != nil {
			return
		}
	}
}

func TestServerConnLifecycle(t *testing.T) {
	// established runs a case against a completed handshake: closeIt
	// gets both ends and triggers the close under test.
	established := func(mutate func(*Config), policy ServerPolicy, closeIt func(l *Listener, client, server *Conn)) func(*testing.T) *Listener {
		return func(t *testing.T) *Listener {
			scfg, pool := serverConfig(t, "life.test")
			if mutate != nil {
				mutate(scfg)
			}
			l, addr, conns := listenHanding(t, scfg, policy)
			client, err := Dial(context.Background(), newUDP(t), addr, clientConfig(pool, "life.test"))
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			t.Cleanup(func() { client.Close() })
			server := handedConn(t, conns)
			if got := l.routes.activeConns(); got != 1 {
				t.Fatalf("active connections = %d, want 1", got)
			}
			// SCID, the client's original DCID and one issued alternate:
			// the client advertises the default active_connection_id_limit
			// of 2, the SCID and one more.
			if got := len(l.routes.liveConns()); got != 3 {
				t.Errorf("routes while open = %d, want 3", got)
			}
			closeIt(l, client, server)
			waitClosed(t, server)
			return l
		}
	}
	// halfOpen runs a case against a handshake that cannot finish, so
	// that the listener never hands the connection over: only its own
	// timers can end it, and the route table is where it is seen to
	// open and to retire.
	halfOpen := func(mutate func(*Config)) func(*testing.T) *Listener {
		return func(t *testing.T) *Listener {
			initial := captureInitial(t)
			scfg, _ := serverConfig(t, "life.test")
			mutate(scfg)
			l, addr := listenBare(t, scfg, ServerPolicy{})
			raw := newUDP(t)
			defer raw.Close()
			if _, err := raw.WriteTo(initial, addr); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the half-open connection to retire", func() bool {
				return l.routes.activeConns() == 0 && l.routes.tombstones() > 0
			})
			return l
		}
	}

	cases := []struct {
		name string
		run  func(*testing.T) *Listener
	}{
		{"peer-close", established(nil, ServerPolicy{}, func(_ *Listener, client, _ *Conn) { client.Close() })},
		{"local-close", established(nil, ServerPolicy{}, func(_ *Listener, _, server *Conn) { server.Close() })},
		{"local-close-with-error", established(nil, ServerPolicy{}, func(_ *Listener, _, server *Conn) { server.closeWithError(7, "done") })},
		{"idle-timeout", established(func(c *Config) { c.MaxIdleTimeout = 250 * time.Millisecond }, ServerPolicy{}, func(*Listener, *Conn, *Conn) {})},
		{"idle-timeout-notify", established(func(c *Config) { c.MaxIdleTimeout = 250 * time.Millisecond }, ServerPolicy{Quirks: Quirks{IdleCloseNotify: true}}, func(*Listener, *Conn, *Conn) {})},
		{"listener-close", established(nil, ServerPolicy{}, func(l *Listener, _, _ *Conn) { l.Close() })},
		{"handshake-timeout", halfOpen(func(c *Config) { c.HandshakeTimeout = 100 * time.Millisecond; c.MaxPTOs = -1 })},
		{"pto-exhaustion", halfOpen(func(c *Config) { c.PTO = 5 * time.Millisecond; c.MaxPTOs = 2 })},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			l := tc.run(t)
			if got := l.routes.activeConns(); got != 0 {
				t.Errorf("active connections after close = %d, want 0", got)
			}
			if live := l.routes.liveConns(); len(live) != 0 {
				t.Errorf("%d routes still reference a connection after close", len(live))
			}
			if got := l.routes.tombstones(); got == 0 {
				t.Error("no tombstones right after close: late packets would draw stateless resets")
			}
			l.routes.advance(drainingPeriod + time.Nanosecond)
			if got := l.routes.tombstones(); got != 0 {
				t.Errorf("tombstones after the draining period = %d, want 0", got)
			}
		})
	}
}

// TestListenerStateBounded: the listener's memory follows connections
// open, not connections served.
func TestListenerStateBounded(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 500
	}
	scfg, pool := serverConfig(t, "bounded.test")
	l, addr := listenBare(t, scfg, ServerPolicy{})
	tr, err := NewTransport(newUDP(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ccfg := clientConfig(pool, "bounded.test")

	cycle := func(count int) {
		for i := 0; i < count; i++ {
			conn, err := tr.Dial(context.Background(), addr, ccfg)
			if err != nil {
				t.Fatalf("dial %d: %v", i, err)
			}
			conn.Close()
			if i%250 == 0 {
				if got := l.routes.tombstones(); got > maxDraining {
					t.Fatalf("tombstones = %d, above the cap of %d", got, maxDraining)
				}
			}
		}
		waitFor(t, "the server connections to retire", func() bool { return l.routes.activeConns() == 0 })
		// The draining period passes on both tables' clocks at once; from
		// the first cycle on they stand still between these steps.
		l.routes.advance(drainingPeriod + time.Nanosecond)
		tr.routes.advance(drainingPeriod + time.Nanosecond)
		l.routes.tombstones()
		tr.routes.tombstones()
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	// The two endpoints' executors are long-lived and start as load
	// first needs them, up to GOMAXPROCS each: counted apart from the
	// goroutines that must all end.
	executors := func() int {
		n := 0
		for _, e := range []*endpoint{&l.endpoint, &tr.endpoint} {
			e.rx.mu.Lock()
			n += e.rx.running
			e.rx.mu.Unlock()
		}
		return n
	}

	cycle(100) // lazy initialisation, pools, map buckets
	heap0, goroutines0 := liveHeap(), runtime.NumGoroutine()-executors()
	cycle(n)
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine()-executors() <= goroutines0 })
	if got, most := executors(), 2*runtime.GOMAXPROCS(0); got > most {
		t.Errorf("%d executors, want at most %d", got, most)
	}
	heap1 := liveHeap()
	t.Logf("%d connections: live heap %d KB -> %d KB", n, heap0>>10, heap1>>10)
	if heap1 > heap0+2<<20 {
		t.Errorf("live heap grew by %d KB over %d closed connections, want under 2048 KB",
			(heap1-heap0)>>10, n)
	}
}

// TestDrainingThenStatelessReset: while a closed connection's IDs
// drain, its late packets and a replay of its first Initial are
// absorbed silently; afterwards the state is lost for good and a
// short-header packet draws a stateless reset.
func TestDrainingThenStatelessReset(t *testing.T) {
	initial := captureInitial(t)
	scfg, _ := serverConfig(t, "drain.test")
	l, addr := listenBare(t, scfg, ServerPolicy{})

	raw := newUDP(t)
	defer raw.Close()
	if _, err := raw.WriteTo(initial, addr); err != nil {
		t.Fatal(err)
	}
	server := soleConn(t, l)
	scid := append(quicwire.ConnID(nil), server.scid...)
	server.Close()
	waitClosed(t, server)
	drain(raw) // the server's first flight and its CONNECTION_CLOSE

	late0, replay0 := mListenerLatePackets.Value(), mListenerDropDrainingInitial.Value()
	short := make([]byte, 64)
	short[0] = 0x40
	copy(short[1:], scid)

	raw.WriteTo(short, addr)
	readNothing(t, raw, "a short-header packet for a draining connection ID")
	raw.WriteTo(initial, addr)
	readNothing(t, raw, "a replayed Initial for a draining connection")
	if got := l.routes.activeConns(); got != 0 {
		t.Errorf("replayed Initial opened %d connection(s) inside the draining period", got)
	}
	if d := mListenerLatePackets.Value() - late0; d != 1 {
		t.Errorf("quic_listener_late_packets_total moved by %d, want 1", d)
	}
	if d := mListenerDropDrainingInitial.Value() - replay0; d != 1 {
		t.Errorf("quic_listener_drops_total{reason=draining_initial} moved by %d, want 1", d)
	}

	l.routes.advance(drainingPeriod + time.Nanosecond)
	raw.WriteTo(short, addr)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, _, err := raw.ReadFrom(buf)
	if err != nil {
		t.Fatalf("no stateless reset after the draining period: %v", err)
	}
	want := l.reset.tokenFor(scid)
	if n < 21 || !bytes.Equal(buf[n-statelessResetTokenLen:n], want[:]) {
		t.Errorf("answer after the draining period is not the stateless reset for %x", scid)
	}
}

// TestListenerCloseRacesConnCloses: retire runs under c.mu and takes
// table locks, Listener.Close walks the table and then takes each
// c.mu; holding a table lock across the second step would deadlock.
func TestListenerCloseRacesConnCloses(t *testing.T) {
	const n = 64
	scfg, pool := serverConfig(t, "race.test")
	l, addr, conns := listenHanding(t, scfg, ServerPolicy{})
	tr, err := NewTransport(newUDP(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ccfg := clientConfig(pool, "race.test")

	servers := make([]*Conn, n)
	for i := range servers {
		if _, err := tr.Dial(context.Background(), addr, ccfg); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		servers[i] = handedConn(t, conns)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range servers {
		wg.Add(1)
		go func(c *Conn) {
			defer wg.Done()
			<-start
			c.Close()
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		l.Close()
	}()
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Listener.Close deadlocked against concurrent connection closes")
	}
	if got := l.routes.activeConns(); got != 0 {
		t.Errorf("active connections after close = %d, want 0", got)
	}
}

// TestListenerClosesWithNetwork: a Listener on a simnet socket starts no
// goroutine; when Network.Close closes the socket under it, it closes
// as a listener whose pump fails does — its connections are aborted —
// and nothing it started is left running.
func TestListenerClosesWithNetwork(t *testing.T) {
	goroutines0 := runtime.NumGoroutine()
	n := simnet.New(simnet.Config{})
	pc, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	scfg, pool := serverConfig(t, "netclose.test")
	conns := make(chan *Conn, 1)
	l, err := Listen(pc, scfg, ServerPolicy{}, func(c *Conn) { conns <- c })
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine() - goroutines0; got > 0 {
		t.Errorf("Listen on a simnet socket started %d goroutine(s)", got)
	}
	csock, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(csock)
	if err != nil {
		t.Fatal(err)
	}
	client, err := tr.Dial(context.Background(), l.Addr(), clientConfig(pool, "netclose.test"))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	server := handedConn(t, conns)

	n.Close()
	waitClosed(t, server)
	if !errors.Is(server.Err(), errConnectionClosed) {
		t.Errorf("server connection after Network.Close: %v, want errConnectionClosed", server.Err())
	}
	client.Close()
	tr.Close()
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= goroutines0 })
}
