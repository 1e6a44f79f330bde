package quic

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"quicscan/internal/netbatch"
	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
)

// connIDLen is the length of every connection ID an endpoint issues for
// itself, client or server. Keeping it fixed lets route extract the
// destination ID from short-header packets, whose CID length is not
// carried on the wire (RFC 9000, Section 17.3).
const connIDLen = 8

// readBatchSize is how many datagrams one pump wakeup may drain from a
// socket — one recvmmsg on Linux instead of one syscall per datagram,
// which matters under the bursty arrival pattern a handshake campaign
// produces.
const readBatchSize = 16

// maxConsecutiveReadTimeouts bounds deadline-expiry retries in the pump.
// An endpoint sets no deadlines on its own sockets, but an expired one
// left by whoever handed a socket in would have the pump re-read the
// same timeout forever; it tolerates this many in a row (counted in
// quic_read_timeouts_total) and then treats the socket as failed.
const maxConsecutiveReadTimeouts = 64

// endpoint is the socket owner a Transport (dial) and a Listener
// (accept) are thin faces of: it holds the sockets, the route table,
// the stateless-reset key, the pump and the one demux, route. The two
// roles differ only in data fixed at construction: the role (the
// metric set they bill and the error their Close hands connections),
// and srv, which decides what a lookup miss does.
//
// Ownership rule: the endpoint owns its sockets. They are closed by
// Close and by nothing else; connections never close, nor set deadlines
// on, the underlying sockets. A Conn holds its endpoint and its socket
// and calls them directly: send, register, addConnID, removeConnID,
// retire, and the route table's rebindAddr.
type endpoint struct {
	socks []net.PacketConn
	role  *role
	// srv answers a datagram no route owns on a server: a new
	// connection, Version Negotiation, Retry or a stateless reset. nil on
	// a Transport, whose misses fall back to the address route.
	srv *Listener

	// routes is the datagram demux state: live routes by connection ID
	// and (for a client) remote address, and the tombstones of closed
	// connections.
	routes routeTable
	// reset mints the stateless reset token of every connection ID this
	// endpoint issues.
	reset resetKeys

	done   chan struct{} // closed by Close
	readWG sync.WaitGroup

	// Tallies behind Transport.Stats.
	cDatagramsIn, cDatagramsOut, cBytesIn, cBytesOut atomic.Uint64
	cRoutingMisses, cLatePackets, cDropped           atomic.Uint64
}

// role is what a client endpoint and a server endpoint bill and what
// their closing surfaces. The server's per-datagram counters are nil (a
// nil counter counts nothing), so quic_datagrams_*, quic_bytes_*, the
// shard hits and the address-mismatch count stay the client's socket
// traffic alone and the simulated listeners pay for none of it.
type role struct {
	closedErr error // what Close aborts live connections with

	datagramsIn, datagramsOut *telemetry.Counter
	bytesIn, bytesOut         *telemetry.Counter
	shardHits                 [routeShards]*telemetry.Counter
	addrMiss                  *telemetry.Counter
	conns                     *telemetry.Gauge
	// drainEvicted counts tombstones the per-shard cap pushed out before
	// their draining period was up: their late packets become no_route
	// drops, and this is the record of why.
	drainEvicted *telemetry.Counter

	// The drop reasons route counts. empty: a zero-length datagram;
	// badHeader: a long header that does not parse; shortHeader: a short
	// header too short to hold a connection ID; noRoute: nothing owns the
	// destination (the client's address fallback included).
	empty, badHeader, shortHeader, noRoute *telemetry.Counter
}

// pushConn is a socket that calls its owner with each datagram instead
// of being read: simnet's, where a server needs neither a goroutine nor
// a read buffer. Serve's contract is simnet.PacketConn.Serve's.
type pushConn interface {
	Serve(handler func(data []byte, from netip.AddrPort), onClose func()) error
}

// start takes ownership of socks and starts receiving on them. A
// server's one socket, if it can push, calls route itself on the
// sender's goroutine; every other socket gets a pump. Clients stay on
// pull even on simnet: a Conn sends under c.mu, so with both ends
// pushing each side's send would take the other's connection lock.
func (e *endpoint) start(r *role, srv *Listener, socks ...net.PacketConn) error {
	e.role, e.srv, e.socks, e.done = r, srv, socks, make(chan struct{})
	if ps, ok := socks[0].(pushConn); ok && srv != nil {
		// The socket makes one call at a time, so one parse scratch and
		// one source address serve every datagram.
		var hdr quicwire.Header
		from := new(net.UDPAddr)
		return ps.Serve(func(data []byte, ap netip.AddrPort) {
			netbatch.SetUDPAddr(from, ap)
			e.route(&hdr, data, from)
		}, func() { e.Close() })
	}
	e.readWG.Add(len(socks))
	for _, pc := range socks {
		go e.pump(pc)
	}
	return nil
}

// Close tears the endpoint down: it refuses new routes, aborts every
// live connection with the role's error, closes the sockets and waits
// for the pumps. Only the first call does anything.
func (e *endpoint) Close() error {
	conns, ok := e.routes.close()
	if !ok {
		return nil
	}
	close(e.done)
	for _, c := range conns {
		c.abort(e.role.closedErr)
	}
	var err error
	for _, pc := range e.socks {
		if cerr := pc.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	e.readWG.Wait()
	return err
}

// pump reads one socket, a batch per wakeup, and routes each datagram,
// until the socket fails — a run of maxConsecutiveReadTimeouts read
// timeouts counts as failure. A failed socket closes its endpoint, as a
// pushing socket's close does; after Close that is a no-op. The read
// buffers are leased for the pump's lifetime and refilled at once:
// route is synchronous and retains neither the datagram, nor hdr, nor
// from (rewritten in place for the next datagram).
func (e *endpoint) pump(pc net.PacketConn) {
	defer e.Close()
	defer e.readWG.Done()
	bc, _ := netbatch.Wrap(pc)
	var msgs [readBatchSize]netbatch.Message
	var leased [readBatchSize]*[]byte
	for i := range msgs {
		leased[i] = leaseReadBuf()
		msgs[i].Buf = *leased[i]
	}
	defer func() {
		for _, b := range leased {
			releaseReadBuf(b)
		}
	}()
	from := &net.UDPAddr{IP: make(net.IP, 0, 16)}
	var hdr quicwire.Header
	timeouts := 0
	for {
		got, err := bc.ReadBatch(msgs[:])
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				mReadTimeouts.Inc()
				if timeouts++; timeouts < maxConsecutiveReadTimeouts {
					continue
				}
			}
			return
		}
		timeouts = 0
		for i := 0; i < got; i++ {
			netbatch.SetUDPAddr(from, msgs[i].Addr)
			e.route(&hdr, msgs[i].Buf[:msgs[i].N], from)
		}
	}
}

// route delivers one datagram to its connection by destination
// connection ID. A miss is the role's: a server answers it (srv.miss), a
// client falls back to the route by remote address. The datagram, hdr
// and from are only valid for the duration of the call.
func (e *endpoint) route(hdr *quicwire.Header, data []byte, from net.Addr) {
	r := e.role
	e.cDatagramsIn.Add(1)
	e.cBytesIn.Add(uint64(len(data)))
	r.datagramsIn.Inc()
	r.bytesIn.Add(uint64(len(data)))
	if len(data) == 0 {
		e.drop(r.empty)
		return
	}
	// Every connection ID an endpoint issues has the fixed connIDLen, so
	// the destination ID is extracted — and hashed onto its shard —
	// exactly once per datagram, with no per-candidate-length retries.
	long := quicwire.IsLongHeader(data[0])
	var dstID []byte
	if long {
		if _, err := quicwire.ParseLongHeaderInto(hdr, data); err != nil {
			e.drop(r.badHeader)
			return
		}
		dstID = hdr.DstID
	} else {
		if len(data) < 1+connIDLen {
			e.drop(r.shortHeader)
			return
		}
		dstID = data[1 : 1+connIDLen]
	}

	c, late, shard := e.routes.lookup(dstID)
	r.shardHits[shard].Inc()
	switch {
	case c != nil:
		// Routed by connection ID but from an unexpected source address:
		// the observable shadow of NAT rebinding and migration. Counted
		// only — the address route moves when path validation succeeds
		// (rebindAddr), never on sight of a new address.
		if !long && r.addrMiss != nil {
			if ap := addrPortOf(from); ap.IsValid() {
				if active := c.publishedAddr(); active.IsValid() && active != ap {
					r.addrMiss.Inc()
				}
			}
		}
		c.handleDatagram(data, from)
	case e.srv != nil:
		e.srv.miss(hdr, data, from, dstID, late)
	case late:
		e.cLatePackets.Add(1)
		mLatePackets.Inc()
	default:
		// Unknown destination ID: stateless resets (and corrupted
		// headers) land here. Fall back to the per-address route so the
		// owning connection can run its reset-token check.
		if c = e.routes.lookupAddr(addrPortOf(from)); c == nil {
			e.drop(r.noRoute)
			return
		}
		e.cRoutingMisses.Add(1)
		mRoutingMiss.Inc()
		c.handleDatagram(data, from)
	}
}

// drop counts a datagram route could not deliver, under its reason.
func (e *endpoint) drop(reason *telemetry.Counter) {
	e.cDropped.Add(1)
	reason.Inc()
}

// send writes one of a connection's datagrams on its socket and bills it.
func (e *endpoint) send(pc net.PacketConn, b []byte, to net.Addr) error {
	n, err := pc.WriteTo(b, to)
	e.cDatagramsOut.Add(1)
	e.cBytesOut.Add(uint64(n))
	e.role.datagramsOut.Inc()
	e.role.bytesOut.Add(uint64(n))
	return err
}

// register installs the connection's routes under its source ID and,
// on a client, its remote address.
func (e *endpoint) register(c *Conn) error {
	if err := e.routes.register(c); err != nil {
		if err == errRoutesClosed {
			return e.role.closedErr
		}
		return err
	}
	e.role.conns.Add(1)
	return nil
}

// retire removes a closing connection's routes, parking its IDs in the
// draining set so late packets are not misread as drops, new
// connections or stateless-reset triggers. closeLocked calls it on every
// way a connection ends.
func (e *endpoint) retire(c *Conn) {
	ok, evicted := e.routes.retire(c)
	e.role.drainEvicted.Add(uint64(evicted))
	if ok {
		e.role.conns.Add(-1)
	}
}

// removeConnID retires one of c's alternate connection IDs (the peer
// sent RETIRE_CONNECTION_ID for it), parking it in the draining set.
func (e *endpoint) removeConnID(c *Conn, id quicwire.ConnID) {
	_, evicted := e.routes.park(id, c, monoNow())
	e.role.drainEvicted.Add(uint64(evicted))
}

// addConnID routes an additional local connection ID to c, returning
// the stateless reset token to advertise with it.
func (e *endpoint) addConnID(c *Conn, id quicwire.ConnID) ([statelessResetTokenLen]byte, bool) {
	if !e.routes.addConnID(c, id) {
		return [statelessResetTokenLen]byte{}, false
	}
	return e.reset.tokenFor(id), true
}
