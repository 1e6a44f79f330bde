package quic

import (
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"

	"quicscan/internal/netbatch"
	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
)

// connIDLen is the length of every connection ID an endpoint issues for
// itself, client or server. Keeping it fixed lets dest extract the
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
// the stateless-reset key, the pumps, the one demux (dest) and the
// executors that run what the pumps route. The two
// roles differ only in data fixed at construction: the role (the
// metrics they bill and the error their Close hands connections), srv,
// which decides what a lookup miss does, and a Transport's tally.
//
// Ownership rule: the endpoint owns its sockets. They are closed by
// Close and by nothing else; connections never close, nor set deadlines
// on, the underlying sockets. A Conn holds its endpoint and its socket
// and calls them directly: send, register, addConnID, removeConnID and
// retire.
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

	readWG sync.WaitGroup
	// rx hands the datagrams a pump routes to the executors that run
	// them; nil on an endpoint whose socket pushes, which has none.
	rx *rxQueue

	// tally is a Transport's count of its traffic (nil on a Listener),
	// and detach takes it off the registry once Close has stopped it.
	tally  *tally
	detach func()
}

// tally is what a Transport counts, behind its Stats and the client
// quic_* series alike (Transport.readCounts).
type tally struct {
	dials, routingMisses, latePackets atomic.Uint64
	datagramsIn, datagramsOut         atomic.Uint64
	bytesIn, bytesOut                 atomic.Uint64
	dropped                           [numDropReasons]atomic.Uint64
}

// role is what a client endpoint and a server endpoint bill and what
// their closing surfaces. A counter a role leaves nil counts nothing.
type role struct {
	closedErr error            // what Close aborts live connections with
	conns     *telemetry.Gauge // a Listener's; a Transport's is read
	// drainEvicted counts tombstones the table's cap pushed out before
	// their draining period was up: their late packets become no_route
	// drops, and this is the record of why.
	drainEvicted *telemetry.Counter
}

// pushConn is a socket that calls its owner with each datagram instead
// of being read: simnet's, where a server needs neither a goroutine nor
// a read buffer. Serve's contract is simnet.PacketConn.Serve's.
type pushConn interface {
	Serve(handler func(data []byte, from netip.AddrPort), onClose func()) error
}

// start takes ownership of socks and starts receiving on them. A
// server's one socket, if it can push, calls route itself on the
// sender's goroutine; every other socket gets a pump, and the pumps
// share the endpoint's executors. Clients stay on pull even on simnet:
// a Conn sends under c.mu, so with both ends pushing each side's send
// would take the other's connection lock. A pumped endpoint reads into
// buffers of maxIn + 1 bytes: maxIn is the longest datagram it takes, no
// less than the largest max_udp_payload_size it advertises.
func (e *endpoint) start(r *role, srv *Listener, maxIn int, socks ...net.PacketConn) error {
	e.role, e.srv, e.socks = r, srv, socks
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
	e.rx = newRxQueue(maxIn + 1)
	e.readWG.Add(len(socks))
	for _, pc := range socks {
		go e.pump(pc)
	}
	return nil
}

// Close tears the endpoint down: it refuses new routes, aborts every
// live connection with the role's error, closes the sockets, waits for
// the pumps, stops the executors (handing what they left queued back to
// the free list) and detaches. Only the first call does anything.
func (e *endpoint) Close() error {
	conns, ok := e.routes.close()
	if !ok {
		return nil
	}
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
	if e.rx != nil {
		e.rx.stop()
	}
	if e.detach != nil {
		e.detach()
	}
	return err
}

// pump reads one socket, a batch per wakeup, and routes each datagram,
// until the socket fails — a run of maxConsecutiveReadTimeouts read
// timeouts counts as failure. A failed socket closes its endpoint, as a
// pushing socket's close does; after Close that is a no-op. The pump
// runs no connection's receive work: a datagram that has an owner is
// queued on that connection in the node it was read into (handOff),
// and an idle node takes its place in the batch; the pump goes on to
// the next datagram. dest is synchronous and retains neither the
// datagram, nor hdr, nor from (rewritten in place for the next
// datagram), so every other node is read into again at once.
func (e *endpoint) pump(pc net.PacketConn) {
	defer e.Close()
	defer e.readWG.Done()
	q := e.rx
	bc, _ := netbatch.Wrap(pc)
	var msgs [readBatchSize]netbatch.Message
	var batch [readBatchSize]*rxNode
	q.lease(batch[:])
	for i, n := range batch {
		msgs[i].Buf = n.buf
	}
	defer q.releaseBatch(batch[:])
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
			m := &msgs[i]
			netbatch.SetUDPAddr(from, m.Addr)
			c := e.dest(&hdr, m.Buf[:m.N], from)
			if c == nil {
				continue
			}
			n := batch[i]
			n.n, n.from = m.N, m.Addr
			if batch[i] = e.handOff(c, n); batch[i] == nil {
				batch[i] = q.newNode()
			}
			m.Buf = batch[i].buf
		}
	}
}

// route delivers one datagram to its connection on the caller's
// goroutine: a pushing socket's delivery, which hands over its own copy
// of the datagram for the length of the call.
func (e *endpoint) route(hdr *quicwire.Header, data []byte, from net.Addr) {
	if c := e.dest(hdr, data, from); c != nil {
		c.handleDatagram(data, from)
	}
}

// dest is the one demux: it counts a datagram, finds the connection it
// belongs to by destination connection ID and returns it, nil when the
// datagram is dropped or answered here. A miss is the role's: a server
// answers it (srv.miss), which may start a connection for it; a client
// falls back to the route by remote address. The datagram, hdr and from
// are only valid for the duration of the call.
func (e *endpoint) dest(hdr *quicwire.Header, data []byte, from net.Addr) *Conn {
	if t := e.tally; t != nil {
		t.datagramsIn.Add(1)
		t.bytesIn.Add(uint64(len(data)))
	}
	if len(data) == 0 {
		e.drop(dropEmpty)
		return nil
	}
	if q := e.rx; q != nil && len(data) == q.size {
		// It filled a buffer one byte longer than the longest datagram
		// this endpoint takes: the peer broke max_udp_payload_size, and
		// what was read is a truncation.
		e.drop(dropOversize)
		return nil
	}
	// Every connection ID an endpoint issues has the fixed connIDLen, so
	// the destination ID is extracted exactly once per datagram, with no
	// per-candidate-length retries.
	var dstID []byte
	if quicwire.IsLongHeader(data[0]) {
		if _, err := quicwire.ParseLongHeaderInto(hdr, data); err != nil {
			e.drop(dropBadHeader)
			return nil
		}
		dstID = hdr.DstID
	} else {
		if len(data) < 1+connIDLen {
			e.drop(dropShortHeader)
			return nil
		}
		dstID = data[1 : 1+connIDLen]
	}

	c, late := e.routes.lookup(dstID)
	switch {
	case c != nil:
		return c
	case e.srv != nil:
		return e.srv.miss(hdr, data, from, dstID, late)
	// From here on the endpoint is a Transport's, which has a tally.
	case late:
		e.tally.latePackets.Add(1)
		return nil
	}
	// Unknown destination ID: stateless resets (and corrupted headers)
	// land here. Fall back to the per-address route so the owning
	// connection can run its reset-token check.
	if c = e.routes.lookupAddr(addrPortOf(from)); c == nil {
		e.drop(dropNoRoute)
		return nil
	}
	e.tally.routingMisses.Add(1)
	return c
}

// drop counts a datagram dest could not deliver, under its reason.
func (e *endpoint) drop(why dropReason) {
	if t := e.tally; t != nil {
		t.dropped[why].Add(1)
	} else {
		mListenerDropsBy[why].Inc()
	}
}

// rxQueue is the hand-off from an endpoint's pumps to its executors. A
// pump queues each datagram it routes, copied into a node, on its
// connection's FIFO (Conn.rxHead); a connection with datagrams queued
// waits in ready until an executor takes it. An executor runs one
// connection at a time and a connection on one executor at a time
// (Conn.rxBusy), so its datagrams are handled in arrival order, while
// the handshakes of other connections go on beside it. Executors start
// lazily, up to GOMAXPROCS, and run until the endpoint closes.
//
// Nothing holds mu while calling into a Conn, so the pumps never wait
// on a connection's receive work.
type rxQueue struct {
	mu   sync.Mutex
	wake sync.Cond // on mu: an idle executor waits here for a ready connection

	// ready lists the connections with datagrams queued that no
	// executor holds, in the order they became so, linked through
	// Conn.rxNext.
	readyHead, readyTail *Conn

	idle    int // executors waiting in wake, less those already signalled
	running int // executors started and not yet returned
	max     int // GOMAXPROCS when the endpoint started
	closed  bool

	// size is the length of every node's buffer: the longest datagram
	// the endpoint takes, plus one byte. queueCap is how many a
	// connection may have queued (rxQueueCap's 2 MiB).
	size, queueCap int
	// free is the endpoint's list of idle nodes, nfree long and never
	// longer than keep.
	free        *rxNode
	nfree, keep int

	wg sync.WaitGroup
}

// newRxQueue makes the hand-off of an endpoint that pumps, with nodes
// of size bytes. It starts no executor: the first datagram routed does.
func newRxQueue(size int) *rxQueue {
	q := &rxQueue{max: runtime.GOMAXPROCS(0), size: size, queueCap: rxQueueCap, keep: rxNodeKeep}
	if size > rxBlockBuf {
		q.queueCap = min(rxQueueCap, rxQueueCap*rxNodeSize/size)
		q.keep = readBatchSize
	}
	q.wake.L = &q.mu
	return q
}

// rxQueueCap is how many datagrams a connection may have queued that
// no executor has taken, in one-block nodes; an endpoint with larger
// nodes queues as many as fit in the same 2 MiB (rxQueue.queueCap). A
// pump drops the next one (queue_full), so a peer that sends faster
// than its connection's receive work runs holds at most 2 MiB of nodes,
// not an unbounded backlog.
// It is past one full 1 MiB stream window of 1,350-byte packets (777),
// and about nine times the deepest queue measured: 117, a bulk transfer
// in this package's tests while the whole suite ran on 2 vCPUs. The
// repository benchmark's four workloads reach 8.
const rxQueueCap = 1024

// handOff queues n, the node holding one of c's datagrams, at the tail
// of c's FIFO, makes c ready if no executor holds it, and wakes or
// starts an executor for it. It returns an idle node for the pump's
// batch in n's place, nil when the free list is empty. When c already
// has q.queueCap datagrams queued it drops n's datagram instead, counts
// the drop, and returns n.
func (e *endpoint) handOff(c *Conn, n *rxNode) (next *rxNode) {
	q := e.rx
	q.mu.Lock()
	defer q.mu.Unlock()
	if int(c.rxLen) >= q.queueCap {
		e.drop(dropQueueFull)
		return n
	}
	c.rxLen++
	if c.rxTail == nil {
		c.rxHead = n
	} else {
		c.rxTail.next = n
	}
	c.rxTail = n
	if !c.rxBusy {
		c.rxBusy = true
		q.pushReadyLocked(c)
		switch {
		case q.idle > 0:
			q.idle--
			q.wake.Signal()
		case q.running < q.max:
			q.running++
			q.wg.Add(1)
			go e.execute()
		}
	}
	return q.takeFreeLocked()
}

// execute is one executor. It takes the connection at the head of the
// ready list with every datagram queued for it, runs them through
// handleDatagram in arrival order, and puts the connection back at the
// tail if more arrived meanwhile. It waits while nothing is ready and
// returns once the endpoint has closed.
func (e *endpoint) execute() {
	q := e.rx
	defer q.wg.Done()
	from := &net.UDPAddr{IP: make(net.IP, 0, 16)}
	q.mu.Lock()
	for {
		if q.closed {
			q.running--
			q.mu.Unlock()
			return
		}
		if q.readyHead == nil {
			q.idle++
			q.wake.Wait()
			continue
		}
		c := q.popReadyLocked()
		batch := c.rxHead
		c.rxHead, c.rxTail, c.rxLen = nil, nil, 0
		q.mu.Unlock()

		for n := batch; n != nil; n = n.next {
			netbatch.SetUDPAddr(from, n.from)
			c.handleDatagram(n.data(), from)
		}

		q.mu.Lock()
		q.putFreeLocked(batch)
		if c.rxHead != nil {
			q.pushReadyLocked(c)
		} else {
			c.rxBusy = false
		}
	}
}

// pushReadyLocked appends c to the ready list.
func (q *rxQueue) pushReadyLocked(c *Conn) {
	if q.readyTail == nil {
		q.readyHead = c
	} else {
		q.readyTail.rxNext = c
	}
	q.readyTail = c
}

// popReadyLocked takes the connection at the head of the ready list,
// which must not be empty.
func (q *rxQueue) popReadyLocked() *Conn {
	c := q.readyHead
	if q.readyHead = c.rxNext; q.readyHead == nil {
		q.readyTail = nil
	}
	c.rxNext = nil
	return c
}

// stop ends the executors of a closed endpoint, once its pumps have
// returned, and hands every node still queued back to the free list.
// When it returns, no executor of the endpoint is left.
func (q *rxQueue) stop() {
	q.mu.Lock()
	q.closed = true
	q.wake.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.readyHead != nil {
		c := q.popReadyLocked()
		q.putFreeLocked(c.rxHead)
		c.rxHead, c.rxTail, c.rxLen, c.rxBusy = nil, nil, 0, false
	}
}

// send writes one of a connection's datagrams on its socket; a
// Transport counts it if the socket took it.
func (e *endpoint) send(pc net.PacketConn, b []byte, to net.Addr) error {
	n, err := pc.WriteTo(b, to)
	if t := e.tally; t != nil && err == nil {
		t.datagramsOut.Add(1)
		t.bytesOut.Add(uint64(n))
	}
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
	e.role.drainEvicted.Add(uint64(e.routes.park(c, id)))
}

// addConnID routes an additional local connection ID to c, returning
// the stateless reset token to advertise with it.
func (e *endpoint) addConnID(c *Conn, id quicwire.ConnID) ([statelessResetTokenLen]byte, bool) {
	if !e.routes.addConnID(c, id) {
		return [statelessResetTokenLen]byte{}, false
	}
	return e.reset.tokenFor(id), true
}
