package quic

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
)

// Self-conformance of the receive path (ROADMAP item 5): which frames
// an endpoint accepts in which packet type, checked against our own
// client and our own server — the simulated providers are only valid
// ground truth if the baseline they deviate from conforms.

// rig is one connection mid-handshake with packet protection installed
// at every level, so a packet of any type can be sealed "by the peer"
// and fed through its endpoint's route. It has a started TLS stack
// (CRYPTO frames reach it) but no network: its endpoint owns a
// capturing socket, and everything it sends lands in sock.sent.
type rig struct {
	c    *Conn
	ep   *endpoint
	sock *captureConn
	peer quicwire.ConnID
	pn   uint64
	// seal[t] protects a packet of type t as the peer would.
	seal map[quicwire.PacketType]*quiccrypto.Keys
	// open decrypts the endpoint's own 1-RTT packets.
	open *quiccrypto.Keys
}

// captureConn is a socket that only sends, into sent. Nothing reads it:
// the rig's endpoint is never started.
type captureConn struct {
	net.PacketConn
	sent [][]byte
}

func (cc *captureConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	cc.sent = append(cc.sent, append([]byte(nil), b...))
	return len(b), nil
}

func newRig(t *testing.T, isClient bool) *rig {
	t.Helper()
	r := &rig{peer: quicwire.ConnID{9, 9, 9, 9, 9, 9, 9, 9}, seal: map[quicwire.PacketType]*quiccrypto.Keys{}}
	r.sock = &captureConn{}
	r.ep = &endpoint{role: &serverRole, socks: []net.PacketConn{r.sock}}
	if isClient {
		r.ep.role = &clientRole
	}
	cfg := (&Config{}).clone()
	c := newConn(cfg, isClient)
	r.c = c
	c.ep, c.sock = r.ep, r.sock
	c.version = quicwire.Version1
	c.scid = quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}
	c.dcid = r.peer
	c.origDcid = quicwire.ConnID{7, 7, 7, 7, 7, 7, 7, 7}
	c.remote = &net.UDPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 443}
	if err := r.ep.register(c); err != nil {
		t.Fatal(err)
	}

	ik, err := quiccrypto.NewInitialKeys(c.version, c.origDcid)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.setupInitialKeys(); err != nil {
		t.Fatal(err)
	}
	r.seal[quicwire.PacketInitial] = ik.Server
	if !isClient {
		r.seal[quicwire.PacketInitial] = ik.Client
	}
	keys := func(label byte) *quiccrypto.Keys {
		secret := make([]byte, 32)
		secret[0] = label
		k, err := quiccrypto.NewKeys(tls.TLS_AES_128_GCM_SHA256, secret)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	// Directions do not matter to the frame rules; one secret per level
	// serves the endpoint's read keys, its write keys and the peer's.
	hs, app := &c.spaces[spaceHandshake], &c.spaces[spaceApp]
	hs.sendKeys, hs.recvKeys, r.seal[quicwire.PacketHandshake] = keys('h'), keys('h'), keys('h')
	app.sendKeys, app.recvKeys, r.seal[quicwire.Packet1RTT] = keys('a'), keys('a'), keys('a')
	c.earlyRecvKeys, r.seal[quicwire.Packet0RTT] = keys('e'), keys('e')
	r.open = keys('a')

	tlsCfg := &tls.Config{MinVersion: tls.VersionTLS13, ServerName: "rig.test", NextProtos: []string{"h3"}}
	if isClient {
		c.tls = tls.QUICClient(&tls.QUICConfig{TLSConfig: tlsCfg})
	} else {
		cert, _ := testCert(t, "rig.test")
		tlsCfg.Certificates = []tls.Certificate{cert}
		c.tls = tls.QUICServer(&tls.QUICConfig{TLSConfig: tlsCfg})
	}
	c.tls.SetTransportParameters(localParams(cfg, c.scid))
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.tls.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.drainTLSEvents(); err != nil {
		t.Fatal(err)
	}
	// Two issued connection IDs, so RETIRE_CONNECTION_ID has a
	// sequence number it may legitimately retire: the peer holds up to
	// three of ours.
	c.peerParams.ActiveConnectionIDLimit = 3
	c.issueConnIDsLocked(2)
	t.Cleanup(func() { c.abort(errConnectionClosed) })
	return r
}

// deliver seals payload into one packet of type pt, as the peer would,
// and routes it to the connection.
func (r *rig) deliver(pt quicwire.PacketType, payload []byte) {
	const pnLen = 4 // long enough that an empty payload still leaves a sample
	var pkt []byte
	var pnOff int
	if pt == quicwire.Packet1RTT {
		pkt, pnOff = quicwire.AppendShortHeader(nil, r.c.scid, r.pn, pnLen, false)
	} else {
		hdr := &quicwire.Header{Type: pt, Version: r.c.version, DstID: r.c.scid, SrcID: r.peer,
			PacketNumber: r.pn, PacketNumberLen: pnLen}
		pkt, pnOff = quicwire.AppendLongHeader(nil, hdr, len(payload)+quiccrypto.SealOverhead)
	}
	pkt = r.seal[pt].SealPacket(append(pkt, payload...), pnOff, pnLen, r.pn)
	r.pn++
	var hdr quicwire.Header
	r.ep.route(&hdr, pkt, r.c.remote)
}

// violation returns the reason the endpoint closed itself with
// PROTOCOL_VIOLATION, or "" if it did not.
func (r *rig) violation() string {
	var te *quicwire.TransportErrorError
	if errors.As(r.c.Err(), &te) && te.Code == quicwire.ProtocolViolation && !te.Remote {
		return te.Reason
	}
	return ""
}

// closeOnWire returns the error code of the CONNECTION_CLOSE the
// endpoint sent in its last 1-RTT packet.
func (r *rig) closeOnWire(t *testing.T) (quicwire.TransportError, bool) {
	t.Helper()
	if len(r.sock.sent) == 0 {
		return 0, false
	}
	pkt := r.sock.sent[len(r.sock.sent)-1]
	_, pnOff, err := quicwire.ParseShortHeader(pkt, len(r.peer))
	if err != nil {
		return 0, false
	}
	payload, _, _, err := r.open.OpenPacket(pkt, pnOff, -1)
	if err != nil {
		t.Fatalf("the endpoint's own packet does not open: %v", err)
	}
	frames, err := quicwire.ParseFrames(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if cc, ok := f.(*quicwire.ConnectionCloseFrame); ok && !cc.IsApp {
			return quicwire.TransportError(cc.ErrorCode), true
		}
	}
	return 0, false
}

// conformanceFrames is one benign instance of every frame type: each is
// acceptable to a mid-handshake endpoint wherever Table 3 permits it,
// so a PROTOCOL_VIOLATION can only come from the packet-type rule.
func conformanceFrames(isClient bool) map[string]quicwire.Frame {
	peerStream := uint64(1) // server-initiated, as a client sees it
	if !isClient {
		peerStream = 0
	}
	return map[string]quicwire.Frame{
		"PADDING":              &quicwire.PaddingFrame{Count: 1},
		"PING":                 &quicwire.PingFrame{},
		"ACK":                  &quicwire.AckFrame{Ranges: []quicwire.AckRange{{Smallest: 0, Largest: 0}}},
		"RESET_STREAM":         &quicwire.ResetStreamFrame{StreamID: peerStream},
		"STOP_SENDING":         &quicwire.StopSendingFrame{StreamID: peerStream},
		"CRYPTO":               &quicwire.CryptoFrame{},
		"NEW_TOKEN":            &quicwire.NewTokenFrame{Token: []byte("token")},
		"STREAM":               &quicwire.StreamFrame{StreamID: peerStream, Data: []byte("x")},
		"MAX_DATA":             &quicwire.MaxDataFrame{MaximumData: 1},
		"MAX_STREAM_DATA":      &quicwire.MaxStreamDataFrame{StreamID: peerStream, MaximumData: 1},
		"MAX_STREAMS":          &quicwire.MaxStreamsFrame{Bidi: true, MaximumStreams: 1},
		"DATA_BLOCKED":         &quicwire.DataBlockedFrame{},
		"STREAM_DATA_BLOCKED":  &quicwire.StreamDataBlockedFrame{StreamID: peerStream},
		"STREAMS_BLOCKED":      &quicwire.StreamsBlockedFrame{},
		"NEW_CONNECTION_ID":    &quicwire.NewConnectionIDFrame{SequenceNumber: 1, ConnectionID: quicwire.ConnID{5, 5, 5, 5, 5, 5, 5, 5}},
		"RETIRE_CONNECTION_ID": &quicwire.RetireConnectionIDFrame{SequenceNumber: 1},
		"PATH_CHALLENGE":       &quicwire.PathChallengeFrame{Data: [8]byte{1}},
		"PATH_RESPONSE":        &quicwire.PathResponseFrame{Data: [8]byte{2}},
		"CONNECTION_CLOSE":     &quicwire.ConnectionCloseFrame{ErrorCode: uint64(quicwire.NoError)},
		"CONNECTION_CLOSE_APP": &quicwire.ConnectionCloseFrame{IsApp: true},
		"HANDSHAKE_DONE":       &quicwire.HandshakeDoneFrame{},
	}
}

// TestFrameInWrongPacketType: RFC 9000 Section 12.4, Table 3, frame
// type × packet type, against a client and a server. A frame outside
// its permitted packet types closes the connection with
// PROTOCOL_VIOLATION, on the wire too; so does a frame only servers
// send when a server receives it (Sections 19.7, 19.20); everything
// else is accepted. A client never acts on a 0-RTT packet at all.
func TestFrameInWrongPacketType(t *testing.T) {
	const handshakeOnly = "PADDING PING ACK CRYPTO CONNECTION_CLOSE"
	const notInZeroRTT = "ACK CRYPTO NEW_TOKEN PATH_RESPONSE HANDSHAKE_DONE"
	has := func(set, name string) bool { return slices.Contains(strings.Fields(set), name) }
	packets := []quicwire.PacketType{quicwire.PacketInitial, quicwire.PacketHandshake, quicwire.Packet0RTT, quicwire.Packet1RTT}
	for _, isClient := range []bool{true, false} {
		for name, frame := range conformanceFrames(isClient) {
			for _, pt := range packets {
				want := ""
				switch {
				case isClient && pt == quicwire.Packet0RTT:
					// ignored, whatever it carries
				case (pt == quicwire.PacketInitial || pt == quicwire.PacketHandshake) && !has(handshakeOnly, name),
					pt == quicwire.Packet0RTT && has(notInZeroRTT, name):
					want = "frame not permitted in this packet type"
				case !isClient && name == "HANDSHAKE_DONE":
					want = "HANDSHAKE_DONE from a client"
				case !isClient && name == "NEW_TOKEN":
					want = "NEW_TOKEN from a client"
				}
				role := map[bool]string{true: "client", false: "server"}[isClient]
				t.Run(fmt.Sprintf("%s/%s/%s", role, pt, name), func(t *testing.T) {
					r := newRig(t, isClient)
					// A PING rides along so the packet is never only
					// padding, and the offending frame is not the first.
					r.deliver(pt, frame.Append((&quicwire.PingFrame{}).Append(nil)))
					if got := r.violation(); got != want {
						t.Fatalf("closed with PROTOCOL_VIOLATION %q, want %q (close error: %v)", got, want, r.c.Err())
					}
					if want == "" {
						return
					}
					if code, ok := r.closeOnWire(t); !ok || code != quicwire.ProtocolViolation {
						t.Errorf("CONNECTION_CLOSE on the wire: code %v, present %t", code, ok)
					}
					if sp := &r.c.spaces[spaceOf(pt)]; sp.largestRx >= 0 || sp.acks.needsAck() {
						t.Error("the offending packet was recorded for acknowledgement")
					}
				})
			}
		}
	}
}

// TestPacketWithoutFrames: RFC 9000 Section 12.4 — an empty payload is
// a PROTOCOL_VIOLATION in every packet type, not a packet to
// acknowledge.
func TestPacketWithoutFrames(t *testing.T) {
	for _, isClient := range []bool{true, false} {
		for _, pt := range []quicwire.PacketType{quicwire.PacketInitial, quicwire.PacketHandshake, quicwire.Packet1RTT} {
			r := newRig(t, isClient)
			r.deliver(pt, nil)
			if got := r.violation(); got != "packet without frames" {
				t.Errorf("client=%t %v: closed with %q (%v)", isClient, pt, got, r.c.Err())
			}
			if code, ok := r.closeOnWire(t); !ok || code != quicwire.ProtocolViolation {
				t.Errorf("client=%t %v: CONNECTION_CLOSE on the wire: code %v, present %t", isClient, pt, code, ok)
			}
		}
	}
}

// TestMalformedFrameActsOnNothing: a packet whose last frame is
// malformed has none of its earlier frames acted on — the validating
// pass rejects the packet before the handling pass starts.
func TestMalformedFrameActsOnNothing(t *testing.T) {
	r := newRig(t, true)
	payload := (&quicwire.NewConnectionIDFrame{SequenceNumber: 1, ConnectionID: quicwire.ConnID{5, 5, 5, 5, 5, 5, 5, 5}}).Append(nil)
	payload = append(payload, 0x1a, 1, 2, 3) // a PATH_CHALLENGE frame, truncated
	r.deliver(quicwire.Packet1RTT, payload)
	var te *quicwire.TransportErrorError
	if !errors.As(r.c.Err(), &te) || te.Code != quicwire.FrameEncodingError {
		t.Fatalf("close error %v, want FRAME_ENCODING_ERROR", r.c.Err())
	}
	r.c.mu.Lock()
	n := len(r.c.peerConnIDs)
	r.c.mu.Unlock()
	if n != 0 {
		t.Errorf("%d connection IDs stored from a rejected packet", n)
	}
}

// TestAppCloseBeforeOneRTTKeys: RFC 9000 Section 10.2.3 — an
// application close issued while only Handshake keys exist leaves as
// CONNECTION_CLOSE 0x1c / APPLICATION_ERROR, which the peer's Table 3
// check accepts, not as the 0x1d frame it would refuse.
func TestAppCloseBeforeOneRTTKeys(t *testing.T) {
	r := newRig(t, true)
	r.c.mu.Lock()
	r.c.spaces[spaceApp].sendKeys = nil
	r.c.spaces[spaceInitial].dropped = true
	r.c.mu.Unlock()
	r.c.closeWithError(0x101, "application detail")

	pkt := r.sock.sent[len(r.sock.sent)-1]
	var hdr quicwire.Header
	pnOff, err := quicwire.ParseLongHeaderInto(&hdr, pkt)
	if err != nil || hdr.Type != quicwire.PacketHandshake {
		t.Fatalf("last packet: type %v, err %v; want a Handshake packet", hdr.Type, err)
	}
	payload, _, _, err := r.seal[quicwire.PacketHandshake].OpenPacket(pkt, pnOff, -1)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := quicwire.ParseFrames(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if !quicwire.AllowedIn(f, quicwire.PacketHandshake) {
			t.Errorf("sent %T in a Handshake packet", f)
		}
		if cc, ok := f.(*quicwire.ConnectionCloseFrame); ok {
			if cc.ErrorCode != uint64(quicwire.ApplicationError) || cc.ReasonPhrase != "" {
				t.Errorf("close carries code %#x reason %q", cc.ErrorCode, cc.ReasonPhrase)
			}
			return
		}
	}
	t.Error("no CONNECTION_CLOSE in the packet")
}

// spaceOf is the packet number space a packet type belongs to.
func spaceOf(pt quicwire.PacketType) int {
	switch pt {
	case quicwire.PacketInitial:
		return spaceInitial
	case quicwire.PacketHandshake:
		return spaceHandshake
	}
	return spaceApp
}

// TestIssuedConnIDsWithinPeerLimit: RFC 9000 Section 5.1.1 — an
// endpoint never provides more connection IDs than its peer's
// active_connection_id_limit, the one used in the handshake included.
// Each role issues up to two alternates, fewer under a lower limit: the
// default of 2, which every peer of ours advertises, leaves room for
// one.
func TestIssuedConnIDsWithinPeerLimit(t *testing.T) {
	for _, tc := range []struct {
		issuer string
		limit  uint64
		want   int
	}{
		{"client", 2, 1},
		{"client", 8, 2},
		{"server", 2, 1},
		{"server", 8, 2},
	} {
		t.Run(fmt.Sprintf("%s/limit=%d", tc.issuer, tc.limit), func(t *testing.T) {
			scfg, pool := serverConfig(t, "cid.test")
			ccfg := clientConfig(pool, "cid.test")
			// The issuer's peer advertises the limit.
			if tc.issuer == "client" {
				scfg.TransportParams = DefaultServerParams()
				scfg.TransportParams.ActiveConnectionIDLimit = tc.limit
			} else {
				ccfg.TransportParams = DefaultClientParams()
				ccfg.TransportParams.ActiveConnectionIDLimit = tc.limit
			}
			_, addr, conns := listenHanding(t, scfg, ServerPolicy{})
			client, err := Dial(context.Background(), newUDP(t), addr, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })
			// Both roles issue theirs as the handshake completes: a client
			// before Dial returns, a server before it hands the
			// connection over.
			issuer := client
			if tc.issuer == "server" {
				issuer = handedConn(t, conns)
			}
			issuer.mu.Lock()
			alternates := len(issuer.localCIDs) - 1
			issuer.mu.Unlock()
			if alternates != tc.want {
				t.Errorf("issued %d alternate connection IDs to a peer whose limit is %d, want %d",
					alternates, tc.limit, tc.want)
			}
		})
	}
}
