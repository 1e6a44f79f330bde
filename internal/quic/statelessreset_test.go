package quic

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"quicscan/internal/quicwire"
)

func TestStatelessResetTokens(t *testing.T) {
	var r resetKeys
	cid1 := quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}
	cid2 := quicwire.ConnID{8, 7, 6, 5, 4, 3, 2, 1}
	t1 := r.tokenFor(cid1)
	if t1 != r.tokenFor(cid1) {
		t.Error("token not deterministic")
	}
	if t1 == r.tokenFor(cid2) {
		t.Error("distinct connection IDs share a token")
	}
	var r2 resetKeys
	if t1 == r2.tokenFor(cid1) {
		t.Error("distinct endpoints share tokens")
	}
}

// TestStatelessResetEndToEnd: the server loses connection state; the
// client's next 1-RTT packet elicits a stateless reset, and the client
// terminates with errStatelessReset.
func TestStatelessResetEndToEnd(t *testing.T) {
	scfg, pool := serverConfig(t, "reset.test")
	l, addr := startServer(t, scfg, ServerPolicy{})

	conn, err := Dial(context.Background(), newUDP(t), addr, clientConfig(pool, "reset.test"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The server announced a reset token.
	params, ok := conn.PeerTransportParameters()
	if !ok || len(params.StatelessResetToken) != 16 {
		t.Fatalf("no stateless reset token in transport parameters: %+v", params.StatelessResetToken)
	}

	// Let the handshake tail (acks, HANDSHAKE_DONE) drain, then
	// simulate state loss at the server for every connection.
	time.Sleep(250 * time.Millisecond)
	conns := l.routes.liveConns()
	if len(conns) == 0 {
		t.Fatal("no server connection")
	}
	for _, c := range conns {
		l.routes.forget(c)
	}

	// The client's next (sufficiently large) 1-RTT packet triggers the
	// reset.
	s, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	s.Write(make([]byte, 256))

	select {
	case <-conn.Closed():
	case <-time.After(3 * time.Second):
		t.Fatal("connection did not observe the stateless reset")
	}
	conn.mu.Lock()
	err = conn.closeErr
	conn.mu.Unlock()
	if !errors.Is(err, errStatelessReset) {
		t.Errorf("close error = %v, want stateless reset", err)
	}
}

// TestResetDetectionBounds pins down the receiver-side acceptance
// rules audited for RFC 9000 Section 10.3.1: a datagram shorter than
// 21 bytes can never be a stateless reset even if it ends in the
// peer's exact token, the 21-byte minimum with an exact token is
// detected, and a token that differs in a single bit is rejected (the
// comparison is constant-time, so near-misses must behave exactly
// like random tails).
func TestResetDetectionBounds(t *testing.T) {
	c := newConn(&Config{}, true)
	token := bytes.Repeat([]byte{0xA5}, statelessResetTokenLen)
	c.havePeerParams = true
	c.peerParams.StatelessResetToken = token

	mk := func(size int, tok []byte) []byte {
		d := make([]byte, size)
		d[0] = 0x41
		copy(d[size-len(tok):], tok)
		return d
	}

	if c.isStatelessResetLocked(mk(20, token)) {
		t.Error("20-byte datagram accepted as stateless reset")
	}
	if !c.isStatelessResetLocked(mk(21, token)) {
		t.Error("21-byte reset with exact token not detected")
	}
	near := append([]byte(nil), token...)
	near[len(near)-1] ^= 0x01
	if c.isStatelessResetLocked(mk(41, near)) {
		t.Error("near-miss token (one bit off) accepted")
	}

	// Tokens learned from NEW_CONNECTION_ID frames follow the same
	// rules.
	var altTok [16]byte
	copy(altTok[:], bytes.Repeat([]byte{0x3C}, 16))
	c.peerConnIDs = append(c.peerConnIDs, peerConnID{seq: 1, token: altTok})
	if !c.isStatelessResetLocked(mk(30, altTok[:])) {
		t.Error("reset with NEW_CONNECTION_ID token not detected")
	}
	altTok[0] ^= 0x80
	if c.isStatelessResetLocked(mk(30, altTok[:])) {
		t.Error("near-miss NEW_CONNECTION_ID token accepted")
	}
}

// TestNoResetForTinyDatagrams guards the anti-loop rule: packets below
// the trigger size must not elicit resets.
func TestNoResetForTinyDatagrams(t *testing.T) {
	scfg, _ := serverConfig(t, "tiny.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	pc := newUDP(t)
	defer pc.Close()
	// A 20-byte short-header-looking datagram with an unknown DCID.
	probe := make([]byte, 20)
	probe[0] = 0x41
	pc.WriteTo(probe, addr)
	pc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if n, _, err := pc.ReadFrom(make([]byte, 100)); err == nil {
		t.Errorf("got a %d-byte response to a tiny orphan datagram", n)
	}

	// A large orphan datagram does elicit a reset, smaller than itself.
	big := make([]byte, 120)
	big[0] = 0x41
	for i := 1; i < 9; i++ {
		big[i] = byte(i) // unknown DCID
	}
	pc.WriteTo(big, addr)
	pc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := pc.ReadFrom(make([]byte, 200))
	if err != nil {
		t.Fatalf("no stateless reset: %v", err)
	}
	if n >= len(big) {
		t.Errorf("reset (%d bytes) not smaller than trigger (%d)", n, len(big))
	}
	if n < 21 {
		t.Errorf("reset only %d bytes", n)
	}
}

// TestNewConnectionIDsIssued: the server hands out alternate IDs after
// the handshake, the client records them, and packets addressed to an
// alternate ID route to the same connection.
func TestNewConnectionIDsIssued(t *testing.T) {
	scfg, pool := serverConfig(t, "ncid.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	// A client that holds three of the server's IDs at once, so the
	// server issues both of its alternates.
	ccfg := clientConfig(pool, "ncid.test")
	ccfg.TransportParams = DefaultClientParams()
	ccfg.TransportParams.ActiveConnectionIDLimit = 3
	conn, err := Dial(context.Background(), newUDP(t), addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	deadline := time.Now().Add(3 * time.Second)
	var ids []quicwire.ConnID
	for time.Now().Before(deadline) {
		conn.mu.Lock()
		ids = ids[:0]
		for _, p := range conn.peerConnIDs {
			ids = append(ids, p.id)
		}
		conn.mu.Unlock()
		if len(ids) >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(ids) < 2 {
		t.Fatalf("received %d alternate connection IDs, want 2", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if len(id) != 8 {
			t.Errorf("alternate ID length %d", len(id))
		}
		if seen[string(id)] {
			t.Error("duplicate alternate ID")
		}
		seen[string(id)] = true
	}

	// Switching the client's destination ID to an alternate must keep
	// the connection working (the listener routes it to the same conn).
	conn.mu.Lock()
	conn.dcid = append(quicwire.ConnID(nil), ids[0]...)
	conn.mu.Unlock()
	s, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	s.Write([]byte("via alt cid"))
	s.Close()
	buf := make([]byte, 32)
	n, err := s.Read(buf)
	if err != nil || string(buf[:n]) != "VIA ALT CID" {
		t.Errorf("echo over alternate CID = %q, %v", buf[:n], err)
	}
}
