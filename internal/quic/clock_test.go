package quic

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestConnHasOneTimer: a connection keeps one clock. Its handshake/idle,
// PTO, path-probe and migration deadlines are times that one timer
// serves, so no other field of Conn holds a timer, and no path does.
func TestConnHasOneTimer(t *testing.T) {
	if n := countTimers(reflect.TypeOf(Conn{})); n != 1 {
		t.Errorf("Conn holds %d timers, want 1", n)
	}
	if n := countTimers(reflect.TypeOf(pathState{})); n != 0 {
		t.Errorf("pathState holds %d timers, want 0", n)
	}
}

// countTimers counts the timers and tickers a value of type typ holds,
// through nested structs and arrays; pointers, slices and maps lead to
// other objects and are not followed.
func countTimers(typ reflect.Type) int {
	switch typ {
	case reflect.TypeOf(time.Timer{}), reflect.TypeOf(&time.Timer{}),
		reflect.TypeOf(time.Ticker{}), reflect.TypeOf(&time.Ticker{}):
		return 1
	}
	switch typ.Kind() {
	case reflect.Struct:
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			n += countTimers(typ.Field(i).Type)
		}
		return n
	case reflect.Array:
		return typ.Len() * countTimers(typ.Elem())
	}
	return 0
}

// goneServer returns a transport whose session cache holds a 0-RTT
// ticket for a server that has since closed, and the config that dials
// it: a DialEarly to it returns at once and its handshake never ends.
func goneServer(t *testing.T) (*Transport, net.Addr, *Config) {
	t.Helper()
	n, l, pool := lossyWorld(t, 0, 9)
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(pc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	cfg := &Config{
		TLS:          &tls.Config{RootCAs: pool, ServerName: "lossy.test", NextProtos: []string{"h3"}},
		SessionCache: NewSessionCache(4),
	}
	conn := dialFull(t, tr, l.Addr(), cfg)
	if !waitTicket(t, conn) {
		t.Fatal("no session ticket")
	}
	conn.Close()
	l.Close()
	return tr, l.Addr(), cfg
}

// TestEarlyDialDiesAtItsOwnDeadline: the handshake deadline belongs to
// the connection. An early-returned dial whose server has gone away,
// with retransmission off and nobody waiting in HandshakeComplete, is
// closed with ErrHandshakeTimeout once HandshakeTimeout has passed
// since the dial, and a waiter that comes later learns so at once.
func TestEarlyDialDiesAtItsOwnDeadline(t *testing.T) {
	tr, addr, cfg := goneServer(t)
	cfg.MaxPTOs = -1
	cfg.HandshakeTimeout = 500 * time.Millisecond

	start := time.Now()
	conn, err := tr.DialEarly(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if !conn.earlyReturn() {
		t.Fatal("the dial did not return early")
	}
	select {
	case <-conn.Closed():
	case <-time.After(cfg.HandshakeTimeout + time.Second):
		t.Fatalf("still open %v after the dial", time.Since(start).Round(time.Millisecond))
	}
	if elapsed := time.Since(start); elapsed < cfg.HandshakeTimeout {
		t.Errorf("closed %v after the dial, before its %v deadline", elapsed, cfg.HandshakeTimeout)
	}
	if err := conn.Err(); !errors.Is(err, ErrHandshakeTimeout) {
		t.Errorf("close error = %v, want ErrHandshakeTimeout", err)
	}

	begin := time.Now()
	if err := conn.HandshakeComplete(context.Background()); !errors.Is(err, ErrHandshakeTimeout) {
		t.Errorf("HandshakeComplete = %v, want ErrHandshakeTimeout", err)
	}
	if waited := time.Since(begin); waited > 100*time.Millisecond {
		t.Errorf("HandshakeComplete on a dead connection waited %v", waited)
	}
}

// TestDueDeadlinesRunInOrder: when the handshake deadline and a PTO are
// due in the same fire, the handshake deadline runs first, and a dead
// connection retransmits nothing.
func TestDueDeadlinesRunInOrder(t *testing.T) {
	tr, addr, cfg := goneServer(t)
	cfg.PTO = 10 * time.Second // neither deadline comes round by itself
	cfg.HandshakeTimeout = time.Minute

	conn, err := tr.DialEarly(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.mu.Lock()
	past := time.Now().Add(-time.Millisecond)
	conn.idleDeadline, conn.ptoDeadline = past, past
	conn.armTimerLocked()
	conn.mu.Unlock()

	select {
	case <-conn.Closed():
	case <-time.After(5 * time.Second):
		t.Fatal("two due deadlines did not close the connection")
	}
	if err := conn.Err(); !errors.Is(err, ErrHandshakeTimeout) {
		t.Errorf("close error = %v, want ErrHandshakeTimeout", err)
	}
	if st := conn.Stats(); st.Retransmits != 0 {
		t.Errorf("Retransmits = %d: the PTO ran before the handshake deadline", st.Retransmits)
	}
}
