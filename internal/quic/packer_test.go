package quic

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"

	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
)

// sniffConn records a copy of every datagram written through it.
type sniffConn struct {
	net.PacketConn
	mu   sync.Mutex
	sent [][]byte
}

func (s *sniffConn) WriteTo(b []byte, to net.Addr) (int, error) {
	s.mu.Lock()
	s.sent = append(s.sent, bytes.Clone(b))
	s.mu.Unlock()
	return s.PacketConn.WriteTo(b, to)
}

func (s *sniffConn) datagrams() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.sent)
}

// sniffedWorld is an echo server and a client transport on a simnet,
// each socket wrapped in a sniffConn; mutate adjusts both configs.
func sniffedWorld(t *testing.T, mutate func(server, client *Config)) (tr *Transport, addr net.Addr, ccfg *Config, sniffs [2]*sniffConn) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	spc, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	cpc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	sniffs = [2]*sniffConn{{PacketConn: spc}, {PacketConn: cpc}}
	scfg, pool := serverConfig(t, "packer.test")
	ccfg = clientConfig(pool, "packer.test")
	if mutate != nil {
		mutate(scfg, ccfg)
	}
	_, addr = serveEcho(t, sniffs[0], scfg, ServerPolicy{})
	tr, err = NewTransport(sniffs[1])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr, addr, ccfg, sniffs
}

// coalesced walks the packets of one datagram by their Length fields and
// returns their types. A short-header packet runs to the end of the
// datagram; a long one must end inside it, and the last must end
// exactly at its end.
func coalesced(t *testing.T, d []byte) []quicwire.PacketType {
	t.Helper()
	var types []quicwire.PacketType
	for off := 0; off < len(d); {
		if !quicwire.IsLongHeader(d[off]) {
			return append(types, quicwire.Packet1RTT)
		}
		var hdr quicwire.Header
		pnOff, err := quicwire.ParseLongHeaderInto(&hdr, d[off:])
		if err != nil {
			t.Fatalf("packet %d of a %d-byte datagram: %v", len(types), len(d), err)
		}
		types = append(types, hdr.Type)
		if off += pnOff + int(hdr.Length); off > len(d) {
			t.Fatalf("%v: Length runs %d bytes past the %d-byte datagram", types, off-len(d), len(d))
		}
	}
	return types
}

// TestCoalescedLengthsCoverDatagram: every packet is built in place
// behind its header, whose Length is patched once the payload is known.
// In every datagram of a handshake, a stream exchange and a resumed
// 0-RTT one, on both sides, the packets' Length fields add up to the
// datagram; and the coalescings the packer makes all occur.
func TestCoalescedLengthsCoverDatagram(t *testing.T) {
	// Past 1,200 + 256 bytes, an Initial padded to 1,200 leaves room for
	// a Handshake or 0-RTT packet behind it; each side advertises that
	// much, so the other may send it.
	tr, addr, ccfg, sniffs := sniffedWorld(t, func(server, client *Config) {
		server.MaxDatagramSize, client.MaxDatagramSize = 1500, 1500
		server.TransportParams, client.TransportParams = DefaultServerParams(), DefaultClientParams()
		server.TransportParams.MaxUDPPayloadSize, client.TransportParams.MaxUDPPayloadSize = 1500, 1500
	})
	ccfg.SessionCache = NewSessionCache(4)
	conn := dialFull(t, tr, addr, ccfg)
	if !waitTicket(t, conn) {
		t.Fatal("no session ticket")
	}
	echo(t, conn, "one", "ONE")
	conn.Close()
	early, err := tr.DialEarly(context.Background(), addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	echo(t, early, "two", "TWO")
	if err := early.HandshakeComplete(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !early.EarlyDataAccepted() {
		t.Fatal("0-RTT not accepted")
	}

	seen := map[string]bool{}
	for _, s := range sniffs {
		for _, d := range s.datagrams() {
			seen[fmt.Sprint(coalesced(t, d))] = true
		}
	}
	t.Logf("datagram shapes: %v", seen)
	for _, want := range [][]quicwire.PacketType{
		{quicwire.PacketInitial, quicwire.PacketHandshake},
		{quicwire.PacketHandshake, quicwire.Packet1RTT},
		{quicwire.Packet0RTT},
	} {
		if !seen[fmt.Sprint(want)] {
			t.Errorf("no datagram of %v; saw %v", want, seen)
		}
	}
}

// TestDatagramsLargerThanSendBuffer: a MaxDatagramSize past the pooled
// send buffer grows that send's buffer onto the heap, and a handshake
// and a stream transfer work with datagrams that use it. Each side
// advertises the size as its max_udp_payload_size, so that the other
// may send it: the Listener (pumped, as the sniffing wrapper hides the
// simnet socket's push) reads into buffers that hold it, and the
// Transport advertises what its own hold, blockMaxPayload, which
// is past the send buffer too.
func TestDatagramsLargerThanSendBuffer(t *testing.T) {
	const size = 3 * sendBufSize
	tr, addr, ccfg, sniffs := sniffedWorld(t, func(server, client *Config) {
		server.MaxDatagramSize, client.MaxDatagramSize = size, size
		server.TransportParams, client.TransportParams = DefaultServerParams(), DefaultClientParams()
		server.TransportParams.MaxUDPPayloadSize, client.TransportParams.MaxUDPPayloadSize = size, size
	})
	conn := dialFull(t, tr, addr, ccfg)
	msg := strings.Repeat("large datagrams ", 4096)
	echo(t, conn, msg, strings.ToUpper(msg))
	for i, s := range sniffs {
		largest := 0
		for _, d := range s.datagrams() {
			largest = max(largest, len(d))
		}
		if largest <= sendBufSize || largest > size {
			t.Errorf("side %d: largest datagram %d bytes, want (%d, %d]", i, largest, sendBufSize, size)
		}
	}
}

// discardConn is a socket whose writes go nowhere and cost nothing.
type discardConn struct{ net.PacketConn }

func (discardConn) WriteTo(b []byte, _ net.Addr) (int, error) { return len(b), nil }

// TestSendAllocatesNothing: packing and sending one 1-RTT datagram with
// a queued frame allocates nothing. The send buffer is leased from the
// pool and returned, the packet is built in place in it, and the frame
// list is the connection's scratch.
func TestSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	r := newRig(t, true)
	c := r.c
	c.sock = discardConn{}
	sp := &c.spaces[spaceApp]
	c.mu.Lock()
	c.spaces[spaceInitial].dropped = true
	c.spaces[spaceHandshake].dropped = true
	c.mu.Unlock()
	ping := &quicwire.PingFrame{}
	allocs := testing.AllocsPerRun(100, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		sp.outFrames = append(sp.outFrames, ping)
		c.sendPendingLocked()
		if len(sp.loss.sent) == 0 {
			t.Fatal("nothing sent")
		}
		// As if acknowledged: loss tracking keeps one packet at a time.
		sp.loss.sent, sp.loss.frames = sp.loss.sent[:0], sp.loss.frames[:0]
	})
	if allocs != 0 {
		t.Errorf("sending one datagram allocates %.1f times, want 0", allocs)
	}
}
