package quic

import (
	"context"
	crand "crypto/rand"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"quicscan/internal/netbatch"
	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
)

// clientCIDLen is the length of every connection ID this endpoint
// issues for itself. Keeping it fixed lets the transport extract the
// destination ID from short-header packets, whose CID length is not
// carried on the wire (RFC 9000, Section 17.3).
const clientCIDLen = 8

// ErrTransportClosed is returned for operations on a closed Transport.
var ErrTransportClosed = errors.New("quic: transport closed")

// Transport multiplexes many client connections over a small, fixed
// pool of UDP sockets — the architecture high-rate scanners need:
// socket count stays constant no matter how many concurrent handshakes
// are in flight, instead of one kernel socket per target.
//
// One read loop runs per socket. Inbound datagrams are routed to the
// owning *Conn by destination connection ID: every connection
// registers its source connection ID at handshake start, and the
// server addresses all of its packets — Initial, Handshake, 1-RTT,
// and also Version Negotiation and Retry, which echo the client's
// SCID — to that ID. Packets whose destination ID matches no live
// connection (notably stateless resets, which carry random bytes where
// the CID would be) fall back to routing by remote address.
//
// Ownership rule: the Transport owns its sockets. They are closed by
// Transport.Close and by nothing else; connections dialed through a
// Transport never close, nor set deadlines on, the underlying sockets.
type Transport struct {
	pool []net.PacketConn

	// routes is the datagram demux state: live routes by connection ID
	// and remote address, and the tombstones of closed connections.
	routes routeTable

	next   atomic.Uint32 // round-robin socket assignment
	readWG sync.WaitGroup

	// Counters, all atomic; snapshot via Stats.
	cDials         atomic.Uint64
	cDatagramsIn   atomic.Uint64
	cDatagramsOut  atomic.Uint64
	cBytesIn       atomic.Uint64
	cBytesOut      atomic.Uint64
	cRoutingMisses atomic.Uint64
	cLatePackets   atomic.Uint64
	cDropped       atomic.Uint64
}

// TransportStats is a snapshot of a Transport's routing counters: the
// facts of one socket pool, which core.Scanner.TransportStats reports
// per scanner (sockets, routing misses, drops). The telemetry registry
// (quic_datagrams_in_total, quic_bytes_out_total,
// quic_routing_misses_total, ...) holds the process-wide sums of the
// same events; it cannot answer for a single transport.
type TransportStats struct {
	// Sockets is the fixed pool size.
	Sockets int
	// ActiveConns is the number of currently registered connections.
	ActiveConns int
	// Dials counts connection attempts (version-negotiation retries
	// count separately).
	Dials uint64
	// DatagramsIn/Out and BytesIn/Out count UDP payloads crossing the
	// pool.
	DatagramsIn, DatagramsOut uint64
	BytesIn, BytesOut         uint64
	// RoutingMisses counts datagrams whose destination connection ID
	// matched no live connection but that were still delivered via the
	// remote-address fallback (stateless resets take this path).
	RoutingMisses uint64
	// LatePackets counts datagrams for a connection ID retired within
	// the draining period — expected tail traffic, not a loss.
	LatePackets uint64
	// Dropped counts datagrams delivered to no connection: empty,
	// unparsable, or with no route at all (the split by reason is
	// quic_dropped_datagrams_total{reason}).
	Dropped uint64
}

// NewTransport creates a transport over the given sockets and takes
// ownership of them: they are closed by Transport.Close (including
// when NewTransport itself fails).
func NewTransport(pconns ...net.PacketConn) (*Transport, error) {
	if len(pconns) == 0 {
		return nil, errors.New("quic: NewTransport requires at least one socket")
	}
	t := &Transport{pool: pconns}
	for _, pc := range pconns {
		t.readWG.Add(1)
		go t.readLoop(pc)
	}
	return t, nil
}

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() TransportStats {
	return TransportStats{
		Sockets:       len(t.pool),
		ActiveConns:   t.routes.activeConns(),
		Dials:         t.cDials.Load(),
		DatagramsIn:   t.cDatagramsIn.Load(),
		DatagramsOut:  t.cDatagramsOut.Load(),
		BytesIn:       t.cBytesIn.Load(),
		BytesOut:      t.cBytesOut.Load(),
		RoutingMisses: t.cRoutingMisses.Load(),
		LatePackets:   t.cLatePackets.Load(),
		Dropped:       t.cDropped.Load(),
	}
}

// Close tears down the transport: all pooled sockets are closed, the
// read loops drained, and every live connection aborted.
func (t *Transport) Close() error {
	conns, ok := t.routes.close()
	if !ok {
		return nil
	}
	var err error
	for _, pc := range t.pool {
		if cerr := pc.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, c := range conns {
		c.abort(ErrTransportClosed)
	}
	t.readWG.Wait()
	return err
}

// Dial establishes a QUIC connection to remote over the socket pool,
// completing the TLS handshake before returning.
//
// If the server answers with a Version Negotiation packet, Dial
// retries once with the best mutually supported version; if there is
// none it returns a *VersionNegotiationError — the paper's "Version
// Mismatch" outcome.
func (t *Transport) Dial(ctx context.Context, remote net.Addr, config *Config) (*Conn, error) {
	return t.dial(ctx, remote, config, false)
}

// DialEarly is Dial for the 0-RTT fast path: when the config's
// SessionCache holds an early-data-capable session for remote, it
// returns as soon as the 0-RTT keys are derived — before any network
// round trip — so data the caller queues immediately rides to the
// server in 0-RTT packets alongside the resumed handshake. When no
// usable session exists (first contact, expired ticket, server never
// offered early data) it degrades to a normal blocking Dial.
//
// After an early return the handshake is still in flight: call
// Conn.HandshakeComplete to observe its outcome, including
// ErrParameterDowngrade when the server violated RFC 9000 §7.4.1.
// Version negotiation on an early-returned dial is not retried — a
// cached session implies the server already accepted this version.
func (t *Transport) DialEarly(ctx context.Context, remote net.Addr, config *Config) (*Conn, error) {
	return t.dial(ctx, remote, config, true)
}

func (t *Transport) dial(ctx context.Context, remote net.Addr, config *Config, early bool) (*Conn, error) {
	cfg := config.clone()
	// The handshake deadline is enforced with one plain timer inside
	// waitHandshake rather than a derived context: a context chain
	// costs several allocations per dial and its only consumer here
	// would be that same select. The caller's ctx still cancels dials.
	deadline := time.Now().Add(cfg.HandshakeTimeout)

	version := cfg.Versions[0]
	var priorVN []quicwire.Version
	for attempt := 0; ; attempt++ {
		conn, err := t.dialVersion(ctx, deadline, remote, cfg, version, priorVN, early)
		if err == nil {
			// An early-returned dial's handshake is still running; its
			// outcome is counted at completion (completeHandshakeLocked)
			// instead of here.
			if !conn.earlyReturn() {
				mHandshakeSuccess.Inc()
			}
			return conn, nil
		}
		var vne *VersionNegotiationError
		if attempt == 0 && errors.As(err, &vne) {
			if v, ok := chooseVersion(cfg.Versions, vne.Server); ok {
				version = v
				// The retry connection carries the negotiation evidence
				// so Stats on the surviving connection reflect it.
				priorVN = vne.Server
				continue
			}
		}
		handshakeCounter(err).Inc()
		return nil, err
	}
}

// sockFor picks the socket for a new connection, round-robin over the
// pool.
func (t *Transport) sockFor() net.PacketConn {
	return t.pool[int(t.next.Add(1)-1)%len(t.pool)]
}

// register installs the connection's routes. dialVersion retries with
// a fresh source ID on the (cosmically unlikely) random collision.
func (t *Transport) register(c *Conn) error {
	// The route keys are cached on the connection: retire needs the very
	// same strings, so stringifying the address and source ID once per
	// connection (not once per map touch) is both cheaper and safer.
	c.scidKey = string(c.scid)
	if c.remoteKey == "" {
		c.remoteKey = c.remote.String()
	}
	if err := t.routes.register(c); err != nil {
		if err == errRoutesClosed {
			return ErrTransportClosed
		}
		return err
	}
	mActiveConns.Add(1)
	return nil
}

// retire removes a closing connection's routes, parking its IDs in the
// draining set so late server packets are not misread as drops.
func (t *Transport) retire(c *Conn) {
	if t.routes.retire(c) {
		mActiveConns.Add(-1)
	}
}

// addConnID routes an additional local connection ID to c, returning
// the stateless reset token to advertise with it.
func (t *Transport) addConnID(c *Conn, id quicwire.ConnID) ([16]byte, bool) {
	var token [16]byte
	if !t.routes.addConnID(c, string(id)) {
		return token, false
	}
	crand.Read(token[:])
	return token, true
}

// readBatchSize is how many datagrams one read-loop wakeup may drain
// from a pooled socket — one recvmmsg on Linux instead of one syscall
// per datagram, which matters under the bursty arrival pattern a
// handshake campaign produces.
const readBatchSize = 16

// maxConsecutiveReadTimeouts bounds deadline-expiry retries in
// readLoop. The transport sets no deadlines on its own sockets, so an
// expired deadline left by whoever handed the socket in used to make
// the loop spin forever; it now tolerates a bounded run of timeouts
// (counted in quic_read_timeouts_total) before concluding the socket
// is unusable and exiting.
const maxConsecutiveReadTimeouts = 64

// readLoop receives datagrams on one pooled socket, a batch per
// wakeup, and routes them.
func (t *Transport) readLoop(pc net.PacketConn) {
	defer t.readWG.Done()
	readDatagrams(pc, readBatchSize, maxConsecutiveReadTimeouts, t.route)
}

// readDatagrams is the socket read loop of Transport and Listener: it
// reads pc, up to batch datagrams per wakeup, until the socket fails —
// a run of maxTimeouts read timeouts counts as failure — and hands each
// datagram to deliver. It leases its read buffers for its
// lifetime: deliver runs synchronously and must not retain the
// datagram, so buffers are refilled immediately — no per-packet
// allocation or copy. Nor may deliver retain hdr, the long-header
// parse scratch it is handed, or from, the datagram's source address,
// which is rewritten in place for the next datagram.
func readDatagrams(pc net.PacketConn, batch, maxTimeouts int, deliver func(hdr *quicwire.Header, data []byte, from net.Addr)) {
	bc, _ := netbatch.Wrap(pc)
	msgs := make([]netbatch.Message, batch)
	leased := make([]*[]byte, batch)
	for i := range msgs {
		leased[i] = leaseReadBuf()
		msgs[i].Buf = *leased[i]
	}
	defer func() {
		for i := range leased {
			releaseReadBuf(leased[i])
		}
	}()
	from := &net.UDPAddr{IP: make(net.IP, 0, 16)}
	var hdr quicwire.Header
	timeouts := 0
	for {
		got, err := bc.ReadBatch(msgs)
		if err != nil {
			var nerr net.Error
			if maxTimeouts > 0 && errors.As(err, &nerr) && nerr.Timeout() {
				mReadTimeouts.Inc()
				if timeouts++; timeouts < maxTimeouts {
					continue
				}
			}
			return
		}
		timeouts = 0
		for i := 0; i < got; i++ {
			netbatch.SetUDPAddr(from, msgs[i].Addr)
			deliver(&hdr, msgs[i].Buf[:msgs[i].N], from)
		}
	}
}

// route delivers one datagram to its connection: by destination
// connection ID first, then by remote address. The datagram is only
// valid for the duration of the call (it lives in the read loop's
// leased buffer).
func (t *Transport) route(hdr *quicwire.Header, data []byte, from net.Addr) {
	t.cDatagramsIn.Add(1)
	t.cBytesIn.Add(uint64(len(data)))
	mDatagramsIn.Inc()
	mBytesIn.Add(uint64(len(data)))
	if len(data) == 0 {
		t.drop(mDroppedEmpty)
		return
	}
	// Every connection ID this endpoint issues has the fixed
	// clientCIDLen, so the destination ID is extracted — and hashed onto
	// its shard — exactly once per datagram, with no
	// per-candidate-length retries.
	var dstID []byte
	if quicwire.IsLongHeader(data[0]) {
		_, err := quicwire.ParseLongHeaderInto(hdr, data)
		if err != nil {
			t.drop(mDroppedBadHeader)
			return
		}
		dstID = hdr.DstID
	} else {
		if len(data) < 1+clientCIDLen {
			t.drop(mDroppedShortHeader)
			return
		}
		dstID = data[1 : 1+clientCIDLen]
	}

	c, late, shard := t.routes.lookup(dstID)
	mRouteShardHits[shard].Inc()
	if c == nil {
		if late {
			t.cLatePackets.Add(1)
			mLatePackets.Inc()
			return
		}
		// Unknown destination ID: stateless resets (and corrupted
		// headers) land here. Fall back to the per-address route so the
		// owning connection can run its reset-token check.
		c = t.routes.lookupAddr(from.String())
		if c == nil {
			t.drop(mDroppedNoRoute)
			return
		}
		t.cRoutingMisses.Add(1)
		mRoutingMiss.Inc()
		c.handleDatagram(data, from)
		return
	}
	// Routed by connection ID but from an unexpected source address:
	// the observable shadow of NAT rebinding and migration. Counted
	// only — the address route moves when path validation succeeds
	// (rebindAddr), never on sight of a new address.
	if !quicwire.IsLongHeader(data[0]) {
		if ap := addrPortOf(from); ap.IsValid() {
			if active := c.publishedAddr(); active.IsValid() && active != ap {
				mRouteAddrMiss.Inc()
			}
		}
	}
	c.handleDatagram(data, from)
}

// drop counts a datagram route could not deliver, under its reason.
func (t *Transport) drop(reason *telemetry.Counter) {
	t.cDropped.Add(1)
	reason.Inc()
}
