package quic

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"quicscan/internal/simnet"
)

// shortOf is a short-header datagram of n bytes addressed to a
// connection ID nothing owns.
func shortOf(n int) []byte {
	b := bytes.Repeat([]byte{0x5a}, n)
	b[0] = 0x40
	return b
}

// TestOversizeDatagramIsDropped: a pumped endpoint reads into buffers
// one byte longer than the largest datagram it advertises. A datagram
// of exactly that size is demuxed like any other; one byte more is
// dropped once, under oversize, and never parsed truncated. On a
// Transport over simnet and over a kernel socket, and on a Listener
// over a kernel socket that advertises 2,000 bytes, past what a
// one-block node holds.
func TestOversizeDatagramIsDropped(t *testing.T) {
	transport := func(t *testing.T, pc, peer net.PacketConn) {
		tr, err := NewTransport(pc)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		defer peer.Close()
		to := pc.LocalAddr()
		for _, n := range []int{blockMaxPayload, blockMaxPayload + 1} {
			if _, err := peer.WriteTo(shortOf(n), to); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "both datagrams", func() bool { return tr.Stats().DatagramsIn == 2 })
		d := &tr.tally.dropped
		if noRoute, oversize := d[dropNoRoute].Load(), d[dropOversize].Load(); noRoute != 1 || oversize != 1 {
			t.Errorf("%d no_route and %d oversize drops, want the %d-byte datagram demuxed (no_route) and the next dropped as oversize",
				noRoute, oversize, blockMaxPayload)
		}
	}
	t.Run("transport-simnet", func(t *testing.T) {
		n := simnet.New(simnet.Config{})
		defer n.Close()
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		peer, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.7:443"))
		if err != nil {
			t.Fatal(err)
		}
		transport(t, pc, peer)
	})
	t.Run("transport-kernel", func(t *testing.T) {
		transport(t, newUDP(t), newUDP(t))
	})
	t.Run("listener-kernel", func(t *testing.T) {
		const limit = 2000
		scfg, _ := serverConfig(t, "oversize.test")
		scfg.TransportParams = DefaultServerParams()
		scfg.TransportParams.MaxUDPPayloadSize = limit
		_, addr := listenBare(t, scfg, ServerPolicy{})
		raw := newUDP(t)
		defer raw.Close()
		before := mListenerDropsBy[dropOversize].Value()
		for _, n := range []int{limit + 1, limit} {
			if _, err := raw.WriteTo(shortOf(n), addr); err != nil {
				t.Fatal(err)
			}
		}
		// The second draws a stateless reset: it was demuxed whole, after
		// the first was dropped.
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, _, err := raw.ReadFrom(make([]byte, 2048)); err != nil {
			t.Fatalf("no stateless reset for the %d-byte datagram: %v", limit, err)
		}
		if got := mListenerDropsBy[dropOversize].Value() - before; got != 1 {
			t.Errorf("quic_listener_drops_total{reason=oversize} moved by %d, want 1", got)
		}
	})
}

// TestTransportAdvertisesWhatItsBuffersHold: a dial whose config
// advertises more than a Transport's buffers hold advertises
// blockMaxPayload instead; one that advertises less keeps it.
func TestTransportAdvertisesWhatItsBuffersHold(t *testing.T) {
	for _, asked := range []uint64{maxUDPPayload, 1300} {
		tr, addr, ccfg, _ := sniffedWorld(t, nil)
		ccfg.TransportParams = DefaultClientParams()
		ccfg.TransportParams.MaxUDPPayloadSize = asked
		conn := dialFull(t, tr, addr, ccfg)
		want := min(asked, blockMaxPayload)
		if got := conn.cfg.TransportParams.MaxUDPPayloadSize; got != want {
			t.Errorf("asked for %d: advertised %d, want %d", asked, got, want)
		}
	}
}

// TestSendsStayWithinPeerMaxUDPPayload: with a MaxDatagramSize of 1,500
// on both sides, each sends no datagram longer than the other's
// max_udp_payload_size once it knows it, through a handshake whose
// flights coalesce up to 1,500 bytes uncapped and a bulk transfer. The server knows the client's from
// the ClientHello, before it sends anything; the client's first flight
// goes out before it can know the server's, and a Listener takes it
// whatever it advertises.
func TestSendsStayWithinPeerMaxUDPPayload(t *testing.T) {
	const serverLimit, clientLimit = 1250, 1300
	tr, addr, ccfg, sniffs := sniffedWorld(t, func(server, client *Config) {
		server.MaxDatagramSize, client.MaxDatagramSize = 1500, 1500
		server.TransportParams, client.TransportParams = DefaultServerParams(), DefaultClientParams()
		server.TransportParams.MaxUDPPayloadSize = serverLimit
		client.TransportParams.MaxUDPPayloadSize = clientLimit
	})
	conn := dialFull(t, tr, addr, ccfg)
	firstFlight := len(sniffs[1].datagrams())
	msg := strings.Repeat("peer limits ", 2048)
	echo(t, conn, msg, strings.ToUpper(msg))
	sent := [2][][]byte{sniffs[0].datagrams(), sniffs[1].datagrams()[firstFlight:]}
	for i, limit := range []int{clientLimit, serverLimit} { // what the server sends, then the client
		largest := 0
		for _, d := range sent[i] {
			largest = max(largest, len(d))
		}
		if largest > limit {
			t.Errorf("side %d: a %d-byte datagram, past the peer's max_udp_payload_size, %d", i, largest, limit)
		}
	}
}

// TestResumedFlightStaysWithinRememberedLimit: before a resumed
// client has the server's fresh transport parameters, its 0-RTT flight
// keeps to the max_udp_payload_size remembered with the session.
func TestResumedFlightStaysWithinRememberedLimit(t *testing.T) {
	const serverLimit = 1250
	tr, addr, ccfg, sniffs := sniffedWorld(t, func(server, client *Config) {
		server.MaxDatagramSize, client.MaxDatagramSize = 1500, 1500
		server.TransportParams = DefaultServerParams()
		server.TransportParams.MaxUDPPayloadSize = serverLimit
	})
	ccfg.SessionCache = NewSessionCache(4)
	conn := dialFull(t, tr, addr, ccfg)
	if !waitTicket(t, conn) {
		t.Fatal("no session ticket")
	}
	conn.Close()
	sent := len(sniffs[1].datagrams())
	early, err := tr.DialEarly(context.Background(), addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	msg := strings.Repeat("early ", 1024)
	echo(t, early, msg, strings.ToUpper(msg))
	if !early.EarlyDataAccepted() {
		t.Fatal("0-RTT not accepted")
	}
	for _, d := range sniffs[1].datagrams()[sent:] {
		if len(d) > serverLimit {
			t.Fatalf("the resumed client sent a %d-byte datagram, past the remembered %d", len(d), serverLimit)
		}
	}
}
