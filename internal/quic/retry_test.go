package quic

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
)

func TestRetryHandshake(t *testing.T) {
	scfg, pool := serverConfig(t, "retry.test")
	_, addr := startServer(t, scfg, ServerPolicy{Quirks: Quirks{Retry: RetryStrictDrop}})

	conn, err := Dial(context.Background(), newUDP(t), addr, clientConfig(pool, "retry.test"))
	if err != nil {
		t.Fatalf("Dial through Retry: %v", err)
	}
	defer conn.Close()
	if !conn.Stats().Retried {
		t.Error("stats did not record the Retry")
	}
	// The peer's transport parameters must authenticate the Retry
	// exchange: original_destination_connection_id is the client's
	// first DCID and retry_source_connection_id the server's Retry ID.
	params, ok := conn.PeerTransportParameters()
	if !ok {
		t.Fatal("no transport parameters")
	}
	if params.RetrySourceConnectionID == nil {
		t.Error("missing retry_source_connection_id after Retry")
	}
	if !bytes.Equal(params.RetrySourceConnectionID, conn.origDcid) {
		t.Errorf("retry_source_connection_id = %x want %x", params.RetrySourceConnectionID, conn.origDcid)
	}
	// And the stream path still works.
	s, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	s.Write([]byte("after retry"))
	s.Close()
	resp := make([]byte, 32)
	n, err := s.Read(resp)
	if err != nil || string(resp[:n]) != "AFTER RETRY" {
		t.Errorf("echo = %q, %v", resp[:n], err)
	}
}

func TestRetryTokenValidation(t *testing.T) {
	var m retryMinter
	addr := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 443}
	odcid := quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}

	token := m.mint(addr, odcid)
	got, ok := m.validate(addr, token)
	if !ok || !bytes.Equal(got, odcid) {
		t.Fatalf("validate = %x, %v", got, ok)
	}
	// Wrong address: rejected (tokens bind the client address).
	other := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 2), Port: 443}
	if _, ok := m.validate(other, token); ok {
		t.Error("token accepted for the wrong address")
	}
	// Tampered token: rejected.
	bad := append([]byte(nil), token...)
	bad[10] ^= 1
	if _, ok := m.validate(addr, bad); ok {
		t.Error("tampered token accepted")
	}
	// Truncated and empty tokens: rejected without panicking.
	if _, ok := m.validate(addr, token[:5]); ok {
		t.Error("short token accepted")
	}
	if _, ok := m.validate(addr, nil); ok {
		t.Error("nil token accepted")
	}
	// A different minter (different key) must reject it.
	var m2 retryMinter
	if _, ok := m2.validate(addr, token); ok {
		t.Error("token accepted by foreign minter")
	}

	// Retry tokens bind the port too; NEW_TOKEN tokens only the IP, so a
	// later connection from another source port still validates.
	otherPort := &net.UDPAddr{IP: addr.IP, Port: 50000}
	if _, ok := m.validate(otherPort, token); ok {
		t.Error("Retry token accepted from another source port")
	}
	newToken := m.mintResumption(addr)
	if _, ok := m.validate(otherPort, newToken); !ok {
		t.Error("NEW_TOKEN token rejected from another source port of the same IP")
	}
	if _, ok := m.validate(other, newToken); ok {
		t.Error("NEW_TOKEN token accepted for the wrong IP")
	}
}

// TestStaleNewTokenFallsBackToRetry: a NEW_TOKEN-tagged token that does
// not validate is treated as absent (RFC 9000, Section 8.1.3) and the
// server validates the address afresh with a Retry, where a bad
// Retry-tagged token is still dropped.
func TestStaleNewTokenFallsBackToRetry(t *testing.T) {
	scfg, pool := serverConfig(t, "stale.test")
	_, addr := startServer(t, scfg, ServerPolicy{Quirks: Quirks{Retry: RetryStrictDrop}})
	var foreign retryMinter // another key: what a restarted server leaves clients holding
	drops := mListenerDropToken.Value()

	ccfg := clientConfig(pool, "stale.test")
	ccfg.InitialToken = foreign.mintResumption(addr)
	conn, err := Dial(context.Background(), newUDP(t), addr, ccfg)
	if err != nil {
		t.Fatalf("dial with a stale NEW_TOKEN token: %v", err)
	}
	defer conn.Close()
	if !conn.Stats().Retried {
		t.Error("stale NEW_TOKEN token was not answered with a Retry")
	}
	if mListenerDropToken.Value() == drops {
		t.Error("quic_listener_drops_total{reason=token} did not move")
	}

	ccfg = clientConfig(pool, "stale.test")
	ccfg.InitialToken = foreign.mint(addr, quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8})
	ccfg.HandshakeTimeout = 300 * time.Millisecond
	if conn, err := Dial(context.Background(), newUDP(t), addr, ccfg); err == nil {
		conn.Close()
		t.Error("dial with a forged Retry token succeeded; it must be dropped")
	}
}

// TestRetryPolicies dials a listener of each RetryPolicy with a forged
// token, as the fingerprint prober does: 32 bytes of 0x5a, tagged
// neither as a Retry (0x01) nor as a NEW_TOKEN (0x02) token, which
// would be answered with a fresh Retry.
func TestRetryPolicies(t *testing.T) {
	forged := bytes.Repeat([]byte{0x5a}, 32)
	for _, tc := range []struct {
		name  string
		retry RetryPolicy
		want  string // "complete", "timeout" or "invalid-token"
	}{
		{"off", RetryOff, "complete"},
		{"strict-drop", RetryStrictDrop, "timeout"},
		{"strict-close", RetryStrictClose, "invalid-token"},
		{"lax", RetryLax, "complete"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg, pool := serverConfig(t, "retry.test")
			_, addr := startServer(t, scfg, ServerPolicy{Quirks: Quirks{Retry: tc.retry}})
			ccfg := clientConfig(pool, "retry.test")
			ccfg.InitialToken = forged
			ccfg.HandshakeTimeout = 300 * time.Millisecond
			conn, err := Dial(context.Background(), newUDP(t), addr, ccfg)
			var terr *quicwire.TransportErrorError
			switch tc.want {
			case "complete":
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}
				if conn.Stats().Retried {
					t.Error("a forged token drew a Retry")
				}
				conn.Close()
			case "timeout":
				if !errors.Is(err, ErrHandshakeTimeout) {
					t.Errorf("err = %v, want handshake timeout", err)
				}
			case "invalid-token":
				if !errors.As(err, &terr) || terr.Code != quicwire.InvalidToken {
					t.Errorf("err = %v, want INVALID_TOKEN (0x0b)", err)
				}
			}
		})
	}
}

// TestVersionMatrix completes handshakes for every scanner-supported
// version, confirming per-version initial salts and wire handling
// (drafts 29/32/34 use two different salt generations; v1 a third).
func TestVersionMatrix(t *testing.T) {
	versions := []quicwire.Version{
		quicwire.VersionDraft29,
		quicwire.VersionDraft32,
		quicwire.VersionDraft34,
		quicwire.Version1,
	}
	for _, v := range versions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			scfg, pool := serverConfig(t, "matrix.test")
			scfg.Versions = []quicwire.Version{v}
			_, addr := startServer(t, scfg, ServerPolicy{})

			ccfg := clientConfig(pool, "matrix.test")
			ccfg.Versions = []quicwire.Version{v}
			conn, err := Dial(context.Background(), newUDP(t), addr, ccfg)
			if err != nil {
				t.Fatalf("Dial with %v: %v", v, err)
			}
			defer conn.Close()
			if conn.Version() != v {
				t.Errorf("negotiated %v", conn.Version())
			}
			s, err := conn.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			s.Write([]byte("ping"))
			s.Close()
			buf := make([]byte, 8)
			n, err := s.Read(buf)
			if err != nil || string(buf[:n]) != "PING" {
				t.Errorf("echo over %v: %q, %v", v, buf[:n], err)
			}
		})
	}
}

// TestCrossVersionNegotiation has client and server preferring
// different but overlapping versions; negotiation must converge.
func TestCrossVersionNegotiation(t *testing.T) {
	scfg, pool := serverConfig(t, "cross.test")
	scfg.Versions = []quicwire.Version{quicwire.VersionDraft34, quicwire.Version1}
	_, addr := startServer(t, scfg, ServerPolicy{})

	ccfg := clientConfig(pool, "cross.test")
	ccfg.Versions = []quicwire.Version{quicwire.VersionDraft29, quicwire.Version1}
	ccfg.HandshakeTimeout = 5 * time.Second
	conn, err := Dial(context.Background(), newUDP(t), addr, ccfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if conn.Version() != quicwire.Version1 {
		t.Errorf("converged on %v, want ietf-01", conn.Version())
	}
	if !conn.Stats().VersionNegotiation {
		t.Error("no version negotiation recorded")
	}
}

// TestAppendInitialClose opens the stateless refusal the way the refused
// client does. The Listener's invalid-token answer and every ghost-0x128
// address of the simulated Internet are this one packet.
func TestAppendInitialClose(t *testing.T) {
	for _, tc := range []struct {
		version quicwire.Version
		code    quicwire.TransportError
		reason  string
	}{
		{quicwire.Version1, quicwire.CryptoError0x128, "tls: no application protocol"},
		{quicwire.VersionDraft29, quicwire.InvalidToken, "invalid address validation token"},
		{quicwire.Version1, quicwire.CryptoError0x128, ""},
	} {
		client := &quicwire.Header{
			Type:    quicwire.PacketInitial,
			Version: tc.version,
			DstID:   quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8},
			SrcID:   quicwire.ConnID{9, 10, 11, 12},
		}
		prefix := []byte("kept")
		out, err := AppendInitialClose(append([]byte(nil), prefix...), client, tc.code, tc.reason)
		if err != nil {
			t.Fatalf("%v: %v", tc.version, err)
		}
		if !bytes.HasPrefix(out, prefix) {
			t.Fatalf("%v: dst was overwritten: %q", tc.version, out[:len(prefix)])
		}
		pkt := out[len(prefix):]
		hdr, pnOff, err := quicwire.ParseLongHeader(pkt)
		if err != nil {
			t.Fatalf("%v: %v", tc.version, err)
		}
		if hdr.Type != quicwire.PacketInitial || hdr.Version != tc.version {
			t.Errorf("%v: answered with a %v packet of version %v", tc.version, hdr.Type, hdr.Version)
		}
		if !bytes.Equal(hdr.DstID, client.SrcID) {
			t.Errorf("%v: DCID %x, want the client's SCID %x", tc.version, hdr.DstID, client.SrcID)
		}
		if len(hdr.SrcID) != 8 {
			t.Errorf("%v: SCID of %d bytes, want 8", tc.version, len(hdr.SrcID))
		}
		ik, err := quiccrypto.NewInitialKeys(tc.version, client.DstID)
		if err != nil {
			t.Fatal(err)
		}
		payload, pn, _, err := ik.Server.OpenPacket(pkt, pnOff, -1)
		if err != nil {
			t.Fatalf("%v: the client's Initial keys do not open it: %v", tc.version, err)
		}
		if pn != 0 {
			t.Errorf("%v: packet number %d, want 0", tc.version, pn)
		}
		frames, err := quicwire.ParseFrames(payload)
		if err != nil {
			t.Fatalf("%v: %v", tc.version, err)
		}
		cc, ok := frames[0].(*quicwire.ConnectionCloseFrame)
		if !ok || cc.IsApp || quicwire.TransportError(cc.ErrorCode) != tc.code || cc.ReasonPhrase != tc.reason {
			t.Errorf("%v: first frame %#v, want a transport close %v %q", tc.version, frames[0], tc.code, tc.reason)
		}
	}
}
