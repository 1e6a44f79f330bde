// Package simnet is the virtual Internet substrate: an in-memory UDP
// plane and a TCP-like stream plane with real addressing, latency and
// loss, over which the scanners run unchanged (they accept
// net.PacketConn / net.Conn). The paper scanned the real IPv4 space
// and an IPv6 hitlist; here the same probes hit simulated deployments.
//
// Two kinds of endpoint exist:
//
//   - socket endpoints: full servers (QUIC listeners, DNS and TCP/TLS
//     servers) bound with ListenUDP / ListenStream, and
//   - synthetic endpoints: a network-level responder callback that can
//     answer datagrams for addresses without sockets. The deployment
//     model uses it to answer stateless version negotiation probes for
//     the entire modelled address population without instantiating
//     millions of servers.
package simnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"quicscan/internal/netbatch"
	"quicscan/internal/telemetry"
)

// datagram is one in-flight UDP payload.
type datagram struct {
	payload []byte
	from    netip.AddrPort
}

// SyntheticResponder may answer a datagram addressed to an endpoint
// with no bound socket. It returns zero or more reply payloads, which
// the network delivers with the probed address as source. It must be
// safe for concurrent use.
type SyntheticResponder func(dst netip.AddrPort, payload []byte) [][]byte

// Network is one simulated Internet.
type Network struct {
	// mu guards the socket and listener maps, the responder, the
	// profiles and closed; see cellLock.
	mu        *cellLock
	udp       map[netip.AddrPort]*PacketConn
	listeners map[netip.AddrPort]*streamListener
	synth     SyntheticResponder

	// profile is the default link impairment; prefixProfiles override
	// it for links to matching prefixes (longest prefix first). perfect
	// says that every one of them is the zero Profile, so that no link
	// is impaired and deliver looks none of them up.
	profile        Profile
	prefixProfiles []prefixProfile
	perfect        bool
	seed           uint64

	// sched delivers delayed datagrams (jitter, reordering) from one
	// goroutine with one timer; see sched.go.
	sched scheduler

	// ephemeral numbers the client addresses handed out. It is an
	// atomic so that a stream dial can take one under a read lock.
	ephemeral atomic.Uint32
	closed    bool

	// traffic counts the datagrams and bytes sent and what became of
	// them, one row per cell: a sender adds to the row its goroutine
	// picks, which another busy sender seldom writes.
	traffic *[telemetry.NumCells]trafficRow
	// detach takes the fates off the registry (Close).
	detach func()
}

// cellLock is Network.mu: a reader-biased RWMutex. A reader (deliver,
// once per datagram) read-locks only the cell its goroutine picks, so
// two senders touch two cache lines where one RWMutex would bounce its
// reader count between them; a writer (bind, unbind, Rebind, the Set*
// calls, Close, a stream listener's bind and close) locks all of the
// cells, in index order. A writer waiting on one cell stalls the
// readers of those it holds, so writers must stay rare next to
// datagrams: a stream dial, for one, is a reader. Like a Counter, it is
// a pointer-free allocation of its own, so its cells start on lines.
type cellLock [telemetry.NumCells]struct {
	sync.RWMutex
	_ [64 - unsafe.Sizeof(sync.RWMutex{})]byte
}

// rlock read-locks the calling goroutine's cell and returns it, for
// the matching RUnlock.
func (l *cellLock) rlock() *sync.RWMutex {
	c := &l[telemetry.CellIndex()].RWMutex
	c.RLock()
	return c
}

// Lock locks every cell, which excludes every reader.
func (l *cellLock) Lock() {
	for i := range l {
		l[i].Lock()
	}
}

// Unlock unlocks what Lock locked.
func (l *cellLock) Unlock() {
	for i := range l {
		l[i].Unlock()
	}
}

// trafficRow is one cell's share of a network's traffic counts, 64
// bytes: one cache line.
type trafficRow struct {
	datagrams, bytes atomic.Int64
	fates            [numFates]atomic.Int64
}

// Config parameterizes a Network.
type Config struct {
	// Profile is the default link impairment profile.
	Profile Profile
	// Seed keys every impairment verdict. With a datagram's link, its
	// index in its flow and its size, it decides the datagram's fate
	// (see Profile).
	Seed uint64
}

// New creates a network.
func New(cfg Config) *Network {
	n := &Network{
		udp:       make(map[netip.AddrPort]*PacketConn),
		listeners: make(map[netip.AddrPort]*streamListener),
		profile:   cfg.Profile,
		perfect:   cfg.Profile == Profile{},
		seed:      cfg.Seed,
		mu:        new(cellLock),
		traffic:   new([telemetry.NumCells]trafficRow),
	}
	n.detach = telemetry.Default().Attach(n.readCounts)
	return n
}

// SetSyntheticResponder installs the fallback responder.
func (n *Network) SetSyntheticResponder(r SyntheticResponder) {
	n.mu.Lock()
	n.synth = r
	n.mu.Unlock()
}

// UDPTraffic reports the datagram and byte counts seen so far.
func (n *Network) UDPTraffic() (datagrams int, bytes int64) {
	for i := range n.traffic {
		datagrams += int(n.traffic[i].datagrams.Load())
		bytes += n.traffic[i].bytes.Load()
	}
	return datagrams, bytes
}

// UDPSocketCount reports how many UDP sockets are currently bound,
// letting tests assert socket economy (pool-size sockets per scan, not
// one per target).
func (n *Network) UDPSocketCount() int {
	l := n.mu.rlock()
	defer l.RUnlock()
	return len(n.udp)
}

// scannerBase is the address range client sockets allocate from,
// mirroring the paper's dedicated research prefix.
var scannerBase = netip.MustParseAddr("198.18.0.1")

// nextEphemeralLocked allocates a client address:port no UDP socket
// holds. The caller holds n.mu, for reading at least: DialUDP and
// Rebind allocate while they rewire the socket map, and DialStream
// only reads it, so that a stream dial is no writer.
func (n *Network) nextEphemeralLocked() (netip.AddrPort, error) {
	for range 64 {
		// Spread clients over the 198.18.0.0/15 benchmarking range with
		// ports above 32768.
		idx := n.ephemeral.Add(1)
		a4 := scannerBase.As4()
		a4[2] += byte(idx >> 14 & 0x7f)
		a4[3] += byte(idx >> 7 & 0x7f)
		at := netip.AddrPortFrom(netip.AddrFrom4(a4), uint16(32768+idx%32000))
		if n.udp[at] == nil {
			return at, nil
		}
	}
	return netip.AddrPort{}, errors.New("simnet: ephemeral address space exhausted")
}

var errNetClosed = errors.New("simnet: network closed")

// ListenUDP binds a socket at a fixed address. Binding an in-use
// address fails.
func (n *Network) ListenUDP(at netip.AddrPort) (*PacketConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bindUDPLocked(at)
}

// DialUDP creates an ephemeral client socket. It allocates the address
// and binds it under one hold of n.mu: a writer locks all of its cells.
func (n *Network) DialUDP() (*PacketConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	at, err := n.nextEphemeralLocked()
	if err != nil {
		return nil, err
	}
	return n.bindUDPLocked(at)
}

// bindUDPLocked binds a new socket at at; the caller holds n.mu.
func (n *Network) bindUDPLocked(at netip.AddrPort) (*PacketConn, error) {
	if n.closed {
		return nil, errNetClosed
	}
	if _, exists := n.udp[at]; exists {
		return nil, fmt.Errorf("simnet: address %v in use", at)
	}
	pc := newPacketConn(n, at)
	n.udp[at] = pc
	mSocketsOpened.Inc()
	return pc, nil
}

func (n *Network) unbindUDP(at netip.AddrPort, pc *PacketConn) {
	n.mu.Lock()
	if n.udp[at] == pc {
		delete(n.udp, at)
	}
	n.mu.Unlock()
}

// deliver routes one datagram sent by src, whose address was from when
// it left. The forward path is judged under the destination link's
// profile; replies synthesized for socketless endpoints go back to src
// and are judged independently under the reverse link's profile, so a
// round trip pays both directions' impairments. A reply's fate is keyed
// by its probe's index and its position among the replies.
func (n *Network) deliver(src *PacketConn, from, to netip.AddrPort, payload []byte) {
	row := &n.traffic[telemetry.CellIndex()]
	row.datagrams.Add(1)
	row.bytes.Add(int64(len(payload)))

	// Everything the routing reads under n.mu, in one acquisition; back
	// is only needed for a synthetic reply.
	l := n.mu.rlock()
	dst := n.udp[to]
	synth := n.synth
	perfect := n.perfect
	var profile, back Profile
	if !perfect {
		profile = n.profileForLocked(to, from)
		if dst == nil && synth != nil {
			back = n.profileForLocked(from, to)
		}
	}
	l.RUnlock()

	// A perfect link is not judged: its datagrams need no key.
	judged := !perfect && (profile != (Profile{}) || back != (Profile{}))
	var key fateKey
	v := delivered
	if judged {
		key = fateKey{seed: n.seed, from: from, to: to, index: src.nextIndex(to)}
		v = judge(profile, &key, len(payload))
	}
	row.count(v)
	if !v.has(fateDelivered) {
		return
	}

	if dst != nil {
		n.land(src, dst, from, payload, v, 0)
		return
	}
	if synth == nil {
		return
	}
	probe := payload
	if v.has(fateCorrupted) {
		probe = leasePayload(len(payload))
		copy(probe, payload)
		v.flip(probe)
	}
	// The responder must not retain probe past the call: it lives in the
	// sender's buffer (or a pooled copy released here).
	replies := synth(to, probe)
	if v.has(fateCorrupted) {
		releasePayload(probe)
	}
	for i, r := range replies {
		rv := delivered
		if judged && back != (Profile{}) {
			rv = judge(back, &fateKey{n.seed, to, from, key.index, uint64(i) + 1}, len(r))
		}
		row.count(rv)
		if rv.has(fateDelivered) {
			n.land(src, src, to, r, rv, v.delay)
		}
	}
}

// land hands a copy of payload, judged v, to dst after base plus the
// verdict's delay, and a duplicate if the verdict made one.
func (n *Network) land(src, dst *PacketConn, from netip.AddrPort, payload []byte, v verdict, base time.Duration) {
	buf := leasePayload(len(payload))
	copy(buf, payload)
	v.flip(buf)
	// The duplicate is copied before buf is handed off (ownership
	// transfers to the receive path at scheduleAfter) but scheduled
	// second, preserving the original delivery order.
	var dup []byte
	if v.has(fateDuplicated) {
		dup = leasePayload(len(buf))
		copy(dup, buf)
	}
	n.scheduleAfter(src, dst, datagram{payload: buf, from: from}, base+v.delay)
	if dup != nil {
		n.scheduleAfter(src, dst, datagram{payload: dup, from: from}, base+v.dupDelay)
	}
}

// Close tears down the network and all sockets.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	conns := make([]*PacketConn, 0, len(n.udp))
	for _, pc := range n.udp {
		conns = append(conns, pc)
	}
	listeners := make([]*streamListener, 0, len(n.listeners))
	for _, l := range n.listeners {
		listeners = append(listeners, l)
	}
	n.mu.Unlock()
	for _, pc := range conns {
		pc.Close()
	}
	for _, l := range listeners {
		l.Close()
	}
	n.sched.close()
	n.detach()
}

// rcvQueueCap bounds a socket's receive queue, in datagrams: the
// simulated SO_RCVBUF. A datagram arriving at a full queue is dropped.
const rcvQueueCap = 4096

// PacketConn is a simulated UDP socket implementing net.PacketConn.
type PacketConn struct {
	net *Network

	// addr is the socket's address, which a sender reads without mu.
	// Its pointee is never written once published: it starts as bound,
	// and Rebind stores a fresh copy.
	addr  atomic.Pointer[netip.AddrPort]
	bound netip.AddrPort

	mu sync.Mutex
	// The receive queue is a FIFO ring of count datagrams starting at
	// ring[head]. It starts empty and doubles on demand up to
	// rcvQueueCap, so an idle socket holds no slots; len(ring) is zero
	// or a power of two.
	ring        []datagram
	head, count int
	// ready holds a token whenever the ring may be non-empty; Close
	// closes it, which wakes every blocked reader for good.
	ready chan struct{}
	// closed is set under mu, and read without it by senders.
	closed   atomic.Bool
	deadline time.Time
	// dlCh exists while a reader is blocked; a deadline change closes
	// and forgets it, so a socket nobody reads carries no channel for it.
	dlCh chan struct{}
	// flows counts the datagrams sent to each destination over an
	// impaired link: the index that keys the next one's fate. It exists
	// from the first such send until Close.
	flows map[netip.AddrPort]uint64
	// srv is set once, by Serve, and never cleared: from then on the
	// socket pushes each datagram to its handler instead of the ring.
	srv atomic.Pointer[server]
}

// server is a push-mode socket's owner (Serve). mu serialises the
// handler calls, so a handler may keep per-socket scratch exactly as a
// single read loop would.
type server struct {
	mu      sync.Mutex
	handler func(payload []byte, from netip.AddrPort)
	onClose func()
}

func newPacketConn(n *Network, at netip.AddrPort) *PacketConn {
	pc := &PacketConn{
		net:   n,
		bound: at,
		ready: make(chan struct{}, 1),
	}
	pc.addr.Store(&pc.bound)
	return pc
}

// enqueue hands d to the socket, taking ownership of its pooled
// payload: to the handler in push mode, else onto the receive queue.
// The decision happens under the lock Close and Serve take: delayed
// deliveries arrive from the scheduler goroutine, so an enqueue can
// otherwise race a close.
func (pc *PacketConn) enqueue(d datagram) {
	pc.mu.Lock()
	if pc.closed.Load() {
		pc.mu.Unlock()
		mClosedDropped.Inc()
		releasePayload(d.payload)
		return
	}
	if srv := pc.srv.Load(); srv != nil {
		pc.mu.Unlock()
		srv.mu.Lock()
		pc.handOver(srv, d)
		srv.mu.Unlock()
		return
	}
	defer pc.mu.Unlock()
	if pc.count == rcvQueueCap {
		// Receive buffer overflow: drop the newcomer, like a real socket.
		mRcvbufDropped.Inc()
		releasePayload(d.payload)
		return
	}
	if pc.count == len(pc.ring) {
		pc.growLocked()
	}
	pc.ring[(pc.head+pc.count)&(len(pc.ring)-1)] = d
	pc.count++
	pc.signalLocked()
}

// handOver calls the handler with d, srv.mu held, and releases the
// payload when it returns. Close does not wait for a call in progress,
// but once it has returned no call begins.
func (pc *PacketConn) handOver(srv *server, d datagram) {
	if pc.closed.Load() {
		mClosedDropped.Inc()
	} else {
		srv.handler(d.payload, d.from)
	}
	releasePayload(d.payload)
}

// Serve puts the socket in push mode, the form a server on an
// in-memory network takes: no goroutine waits in a read and no buffer
// waits for a datagram. From now on every datagram, including any
// already queued, goes to handler instead of a reader. The socket's
// calls are serialised: a sender on a perfect link makes the call on
// its own goroutine, the scheduler makes it for a delayed datagram, and
// a datagram from a socket that is itself serving always goes through
// the scheduler, so two handlers never wait on each other.
// payload is the network's copy, which the handler may modify but must
// not retain; from is its source. onClose, if not nil, runs once, when
// the socket closes. Reads on a serving socket wait until Close.
func (pc *PacketConn) Serve(handler func(payload []byte, from netip.AddrPort), onClose func()) error {
	srv := &server{handler: handler, onClose: onClose}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	pc.mu.Lock()
	if pc.closed.Load() {
		pc.mu.Unlock()
		return net.ErrClosed
	}
	if pc.srv.Load() != nil {
		pc.mu.Unlock()
		return errors.New("simnet: socket already served")
	}
	pc.srv.Store(srv)
	queued := make([]datagram, 0, pc.count)
	for pc.count > 0 {
		queued = append(queued, pc.popLocked())
	}
	pc.ring = nil
	pc.mu.Unlock()
	// Arrivals from now on wait for srv.mu, so they follow these.
	for _, d := range queued {
		pc.handOver(srv, d)
	}
	return nil
}

// growLocked doubles the ring, unwrapping it so head returns to 0.
func (pc *PacketConn) growLocked() {
	size := 2 * len(pc.ring)
	if size == 0 {
		size = 8
	}
	grown := make([]datagram, size)
	n := copy(grown, pc.ring[pc.head:])
	copy(grown[n:], pc.ring[:pc.head])
	pc.ring, pc.head = grown, 0
}

// popLocked removes the oldest datagram; the caller checked count > 0.
func (pc *PacketConn) popLocked() datagram {
	d := pc.ring[pc.head]
	pc.ring[pc.head] = datagram{} // the slot must not pin the payload
	pc.head = (pc.head + 1) & (len(pc.ring) - 1)
	pc.count--
	return d
}

// signalLocked leaves a token in ready unless one is already there.
func (pc *PacketConn) signalLocked() {
	select {
	case pc.ready <- struct{}{}:
	default:
	}
}

// awaitLocked blocks until the socket is readable and returns with
// pc.mu held and count > 0, or returns an error with pc.mu released.
// A deadline that has already expired wins over queued data, and
// SetReadDeadline and Close both wake the wait. An expired deadline is
// os.ErrDeadlineExceeded, as on a kernel socket: a net.Error whose
// Timeout is true.
func (pc *PacketConn) awaitLocked() error {
	for {
		pc.mu.Lock()
		if pc.closed.Load() {
			pc.mu.Unlock()
			return net.ErrClosed
		}
		var wait time.Duration
		if !pc.deadline.IsZero() {
			if wait = time.Until(pc.deadline); wait <= 0 {
				pc.mu.Unlock()
				return os.ErrDeadlineExceeded
			}
		}
		if pc.count > 0 {
			return nil
		}
		if pc.dlCh == nil {
			pc.dlCh = make(chan struct{})
		}
		dlCh := pc.dlCh
		pc.mu.Unlock()

		var timer *time.Timer
		var timeout <-chan time.Time
		if wait > 0 {
			timer = time.NewTimer(wait)
			timeout = timer.C
		}
		select {
		case <-pc.ready:
			// Data arrived or the socket closed; re-evaluate.
		case <-dlCh:
			// Deadline changed; re-evaluate.
		case <-timeout:
			return os.ErrDeadlineExceeded
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// unlockAfterRead ends the critical section awaitLocked opened. ready
// holds one token, so a reader that leaves data behind passes it on to
// whichever other reader is waiting.
func (pc *PacketConn) unlockAfterRead() {
	if pc.count > 0 {
		pc.signalLocked()
	}
	pc.mu.Unlock()
}

// ReadFrom implements net.PacketConn.
func (pc *PacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if err := pc.awaitLocked(); err != nil {
		return 0, nil, err
	}
	d := pc.popLocked()
	pc.unlockAfterRead()
	nn := copy(p, d.payload)
	// The pooled payload is consumed; oversized datagrams truncate into
	// p exactly as real UDP does.
	releasePayload(d.payload)
	return nn, net.UDPAddrFromAddrPort(d.from), nil
}

// WriteTo implements net.PacketConn. A sender takes no lock of the
// socket's: a write that begins after Close has returned fails, and one
// that races Rebind leaves from the old address or the new.
func (pc *PacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if pc.closed.Load() {
		return 0, net.ErrClosed
	}
	from := *pc.addr.Load()
	to, err := toAddrPort(addr)
	if err != nil {
		return 0, err
	}
	pc.net.deliver(pc, from, to, p)
	return len(p), nil
}

// nextIndex returns the index of the socket's next datagram to dst. A
// flow is one connection in practice, which sends under a lock of its
// own, so the numbering follows that connection's sends alone.
func (pc *PacketConn) nextIndex(dst netip.AddrPort) uint64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.flows == nil {
		pc.flows = make(map[netip.AddrPort]uint64)
	}
	i := pc.flows[dst]
	pc.flows[dst] = i + 1
	return i
}

// Rebind moves the socket to a fresh ephemeral address, simulating a
// NAT rebinding: the old mapping disappears and subsequent sends leave
// from the new address. The socket's receive queue is preserved, so
// datagrams already in flight toward the old address still arrive —
// exactly the brief overlap a real NAT's dying mapping produces.
// Returns the new address.
func (pc *PacketConn) Rebind() (netip.AddrPort, error) {
	n := pc.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return netip.AddrPort{}, errNetClosed
	}
	newAddr, err := n.nextEphemeralLocked()
	if err != nil {
		return netip.AddrPort{}, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.closed.Load() {
		return netip.AddrPort{}, net.ErrClosed
	}
	if old := *pc.addr.Load(); n.udp[old] == pc {
		delete(n.udp, old)
	}
	pc.addr.Store(&newAddr)
	n.udp[newAddr] = pc
	return newAddr, nil
}

// PacketConn implements netbatch.BatchConn natively, so netbatch.Wrap
// selects it (KindNative) and batched scanners exercise the same code
// shape over simnet as over real sockets.
var _ netbatch.BatchConn = (*PacketConn)(nil)

// WriteBatch implements netbatch.BatchConn. The simulated network has
// no syscall boundary, so batching is one closed check followed by
// sequential delivery, which numbers each flow's datagrams as a WriteTo
// loop would: the same batch meets the same fates either way. Like
// WriteTo, it takes no lock of the socket's.
func (pc *PacketConn) WriteBatch(ms []netbatch.Message) (int, error) {
	if pc.closed.Load() {
		return 0, net.ErrClosed
	}
	from := *pc.addr.Load()
	for i := range ms {
		pc.net.deliver(pc, from, ms[i].Addr, ms[i].Buf[:ms[i].N])
	}
	return len(ms), nil
}

// errEmptyBuf rejects ReadBatch messages with nowhere to put data,
// before any datagram is consumed.
var errEmptyBuf = errors.New("simnet: ReadBatch message has empty Buf")

// ReadBatch implements netbatch.BatchConn: a deadline-aware blocking
// wait for the first datagram (same semantics as ReadFrom), then
// whatever else is queued, up to len(ms), popped under the same lock.
func (pc *PacketConn) ReadBatch(ms []netbatch.Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	for i := range ms {
		if len(ms[i].Buf) == 0 {
			return 0, errEmptyBuf
		}
	}
	if err := pc.awaitLocked(); err != nil {
		return 0, err
	}
	got := min(len(ms), pc.count)
	for i := 0; i < got; i++ {
		fillMessage(&ms[i], pc.popLocked())
	}
	pc.unlockAfterRead()
	return got, nil
}

// fillMessage moves one delivered datagram into a batch slot,
// truncating oversized payloads exactly like real UDP and releasing
// the pooled payload.
func fillMessage(m *netbatch.Message, d datagram) {
	m.N = copy(m.Buf, d.payload)
	releasePayload(d.payload)
	m.Addr = d.from
}

// Close implements net.PacketConn.
func (pc *PacketConn) Close() error {
	pc.mu.Lock()
	if pc.closed.Load() {
		pc.mu.Unlock()
		return nil
	}
	pc.closed.Store(true)
	// Datagrams nobody will read go back to the payload pool.
	for pc.count > 0 {
		releasePayload(pc.popLocked().payload)
	}
	pc.ring, pc.flows = nil, nil
	close(pc.ready)
	addr := *pc.addr.Load()
	pc.mu.Unlock()
	pc.net.unbindUDP(addr, pc)
	if srv := pc.srv.Load(); srv != nil && srv.onClose != nil {
		srv.onClose()
	}
	return nil
}

// LocalAddr implements net.PacketConn.
func (pc *PacketConn) LocalAddr() net.Addr {
	return net.UDPAddrFromAddrPort(*pc.addr.Load())
}

// SetDeadline implements net.PacketConn (write deadlines are no-ops:
// writes never block).
func (pc *PacketConn) SetDeadline(t time.Time) error { return pc.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn.
func (pc *PacketConn) SetReadDeadline(t time.Time) error {
	pc.mu.Lock()
	pc.deadline = t
	if pc.dlCh != nil {
		close(pc.dlCh)
		pc.dlCh = nil
	}
	pc.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.PacketConn.
func (pc *PacketConn) SetWriteDeadline(time.Time) error { return nil }

// toAddrPort is the net.Addr entry to the network. A net.IP built by
// net.IPv4 is 16 bytes long and converts to ::ffff:a.b.c.d, which is
// neither a listener's bound address nor inside an IPv4 prefix
// profile; the network knows IPv4 endpoints by their unmapped form
// only.
func toAddrPort(addr net.Addr) (netip.AddrPort, error) {
	var ap netip.AddrPort
	switch a := addr.(type) {
	case *net.UDPAddr:
		ap = a.AddrPort()
	case *net.TCPAddr:
		ap = a.AddrPort()
	default:
		return ap, fmt.Errorf("simnet: unsupported address type %T", addr)
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}
