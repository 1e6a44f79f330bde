package quic

import (
	"context"
	"errors"
	"testing"
	"time"

	"quicscan/internal/transportparams"
)

// TestIdleTimeoutTearsDown: an established connection with a short
// negotiated idle timeout dies after silence, while traffic keeps it
// alive.
func TestIdleTimeoutTearsDown(t *testing.T) {
	scfg, pool := serverConfig(t, "idle.test")
	p := transportparams.Default()
	p.MaxIdleTimeout = 300 // ms, announced by the server
	p.InitialMaxData = 1 << 20
	p.InitialMaxStreamDataBidiRemote = 1 << 18
	p.InitialMaxStreamsBidi = 4
	p.InitialMaxStreamsUni = 4
	scfg.TransportParams = p
	_, addr := startServer(t, scfg, ServerPolicy{})

	ccfg := clientConfig(pool, "idle.test")
	ccfg.MaxIdleTimeout = 10 * time.Second // local side is generous
	conn, err := Dial(context.Background(), newUDP(t), addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	// Keep-alive: traffic within the window must prevent teardown.
	for i := 0; i < 3; i++ {
		time.Sleep(120 * time.Millisecond)
		s, err := conn.OpenStream()
		if err != nil {
			t.Fatalf("keep-alive round %d: %v", i, err)
		}
		s.Write([]byte("ka"))
		s.Close()
		buf := make([]byte, 8)
		if _, err := s.Read(buf); err != nil {
			t.Fatalf("keep-alive read %d: %v", i, err)
		}
	}
	// Silence: the connection must die within roughly the negotiated
	// 300ms (plus slack).
	select {
	case <-conn.Closed():
	case <-time.After(3 * time.Second):
		t.Fatal("connection survived idle timeout")
	}
	conn.mu.Lock()
	err = conn.closeErr
	conn.mu.Unlock()
	if !errors.Is(err, errIdleTimeout) {
		t.Errorf("close error = %v", err)
	}
}

// TestIdleTimerLostRace: a timer that fires while a datagram is being
// processed blocks on the connection's mutex; by the time it gets in,
// that datagram has re-armed the deadline. The late callback must
// notice and go back to sleep — Stop and Reset cannot recall a callback
// that has already started — and the re-armed deadline must still be
// enforced afterwards.
func TestIdleTimerLostRace(t *testing.T) {
	scfg, pool := serverConfig(t, "idle.test")
	scfg.TransportParams = DefaultServerParams()
	_, addr := startServer(t, scfg, ServerPolicy{})
	ccfg := clientConfig(pool, "idle.test")
	ccfg.MaxIdleTimeout = 400 * time.Millisecond
	conn, err := Dial(context.Background(), newUDP(t), addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}

	conn.mu.Lock()
	conn.setIdleDeadlineLocked(time.Now().Add(20 * time.Millisecond))
	time.Sleep(100 * time.Millisecond) // the timer has fired; its callback waits for mu
	conn.armIdleTimerLocked()          // what handleDatagram does for the datagram in hand
	conn.mu.Unlock()

	select {
	case <-conn.Closed():
		t.Fatalf("closed by a timer that lost the race with the re-arm: %v", conn.Err())
	case <-time.After(150 * time.Millisecond):
	}
	select {
	case <-conn.Closed():
	case <-time.After(3 * time.Second):
		t.Fatal("the re-armed idle deadline was never enforced")
	}
	if err := conn.Err(); !errors.Is(err, errIdleTimeout) {
		t.Errorf("close error = %v", err)
	}
}

// TestHandshakeDeadlineYieldsToIdle: a server connection's handshake
// deadline and its idle period share one slot (the stalled-handshake
// half is TestServerConnLifecycle's "handshake-timeout" case). A
// handshake that completes must move that slot to the idle period,
// not be cut off when the handshake deadline comes round.
func TestHandshakeDeadlineYieldsToIdle(t *testing.T) {
	scfg, pool := serverConfig(t, "idle.test")
	scfg.TransportParams = DefaultServerParams()
	scfg.HandshakeTimeout = 200 * time.Millisecond
	_, addr, conns := listenHanding(t, scfg, ServerPolicy{})
	conn, err := Dial(context.Background(), newUDP(t), addr, clientConfig(pool, "idle.test"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := handedConn(t, conns)
	select {
	case <-server.Closed():
		t.Fatalf("an established connection died at the handshake deadline: %v", server.Err())
	case <-time.After(2 * scfg.HandshakeTimeout):
	}
}
