package quic

import (
	"net/netip"
	"sync"
)

// Pooled packet memory for the datagram hot path.
//
// Ownership rules (see DESIGN.md §8):
//
//   - Receive nodes (rxNode) are the one receive buffer of an endpoint
//     that pumps (every Transport socket, and a Listener's kernel
//     socket). Each holds the longest datagram the endpoint takes plus
//     one byte: for a Transport the max_udp_payload_size it advertises,
//     for a Listener that or blockMaxPayload, whichever is larger. A
//     datagram that fills a node is longer than the peer was allowed to
//     send: dest drops it (drops{reason="oversize"}) instead of parsing
//     a truncation. A pump leases one batch of nodes, ReadBatch fills
//     them, and the pump routes each datagram (endpoint.dest) where it
//     lies. A node whose datagram a connection owns is queued on that
//     connection's FIFO as it is, with no copy, and the pump takes an
//     idle node into its batch in its place; every other node stays in
//     the batch for the next read. A queued node is owned by the queue
//     until an executor takes the connection's queued nodes as one
//     batch; the executor passes each to Conn.handleDatagram, which
//     processes the datagram synchronously under c.mu, and returns the
//     batch to the free list once it has run. The datagram is valid
//     only for the duration of that call, and the frames
//     quicwire.FrameIter decodes from it only until the iterator's next
//     step: anything a connection retains past that (crypto stream
//     data, stream segments, connection IDs, tokens) must be copied
//     out. Each endpoint keeps its own free list, under its hand-off
//     lock: a bounded list (rxQueue.keep nodes), not a sync.Pool, so
//     what it holds does not depend on when the collector last ran, and
//     it goes with its endpoint. A stopping pump and Close return every
//     node they hold. A Listener on a pushing socket (simnet) uses none:
//     the socket hands it the network's own copy of each datagram,
//     under the same rule, and takes it back when the call returns.
//   - Send buffers are leased by sendPendingLocked (and a path probe)
//     at the start of a send and released before it returns. Every
//     packet of every datagram the send emits is built in place in that
//     one buffer, and endpoint.send never retains it: simnet copies the
//     datagram, and the kernel copies it on sendmsg. So the number of
//     live send buffers follows the number of concurrent senders, not
//     of live connections. A datagram budget beyond sendBufSize grows
//     that send's buffer onto the heap; the grown slice is dropped, and
//     only the leased array goes back.
//   - Nothing else is pooled. The short-lived copies a connection makes
//     of a datagram (the pristine copy for the stateless-reset check,
//     the next-key decryption trial) are its own scratch, guarded by
//     c.mu and reused by its next datagram; no other connection ever
//     sees them.
//
// The aliasing contract is enforced by TestPoolAliasingSafety, which
// scribbles over idle receive nodes while handshakes are in flight,
// and by TestFrameStorageNotRetained, which destroys every received
// frame and the payload bytes under it (a receive node's, on a pumped
// endpoint) the moment its handler returns.

// sendBufSize is the capacity of a leased send buffer: the default
// 1,350-byte datagram budget with room for a packet that overshoots it.
const sendBufSize = 1536

// sendBufPool holds idle send buffers as array pointers, which go into
// a sync.Pool as they are, where a slice would be boxed on every Put.
var sendBufPool = sync.Pool{New: func() any { return new([sendBufSize]byte) }}

// leaseSendBuf returns a send buffer for one send.
func leaseSendBuf() *[sendBufSize]byte { return sendBufPool.Get().(*[sendBufSize]byte) }

// releaseSendBuf returns a send buffer when its send is done. The caller
// must not touch the buffer, nor anything sliced from it, afterwards.
func releaseSendBuf(b *[sendBufSize]byte) { sendBufPool.Put(b) }

// rxNodeSize is the size of a receive node allocated as one block
// (rxBlock), a size class of its own.
const rxNodeSize = 2048

// rxBlockBuf is the buffer a one-block node holds: what the 2,048-byte
// class leaves beside the node's fields, 1,976 bytes.
const rxBlockBuf = rxNodeSize - 72 // the fields' 72 bytes on a 64-bit platform

// blockMaxPayload is the longest datagram a one-block node holds whole:
// a longer one fills its buffer. It is past anything a peer sends at
// this stack's default 1,350-byte budget. A Transport reads into
// one-block nodes, so it advertises at most this max_udp_payload_size.
// A Listener reads at least this much whatever it advertises: a client
// sizes its first flight before it can know the server's limit.
const blockMaxPayload = rxBlockBuf - 1

// maxUDPPayload is the largest UDP payload there is (RFC 9000, Section
// 18.2): a larger max_udp_payload_size admits nothing more.
const maxUDPPayload = 65527

// rxNodeKeep is how many idle one-block nodes an endpoint keeps: a
// pump's batch four times over (128 KiB). An endpoint whose nodes are
// larger (a Listener advertising past rxBlockBuf) keeps one batch.
const rxNodeKeep = 4 * readBatchSize

// rxNode is a receive buffer: one datagram a pump read and routed,
// waiting in its connection's FIFO for an executor, or an empty buffer
// in a pump's batch or on the free list.
type rxNode struct {
	next *rxNode // the connection's next datagram, or the next idle node
	from netip.AddrPort
	n    int    // the datagram is buf[:n]
	buf  []byte // the endpoint's rxQueue.size bytes
}

// rxBlock is a node with its buffer in one allocation.
type rxBlock struct {
	rxNode
	arr [rxBlockBuf]byte
}

// newNode makes a node of the endpoint's size: one block when its
// buffer fits beside the fields, else a node and a buffer of its own.
func (q *rxQueue) newNode() *rxNode {
	if q.size <= rxBlockBuf {
		b := new(rxBlock)
		b.buf = b.arr[:q.size]
		return &b.rxNode
	}
	return &rxNode{buf: make([]byte, q.size)}
}

// data is the datagram the node holds.
func (n *rxNode) data() []byte { return n.buf[:n.n] }

// takeFreeLocked pops an idle node, nil when there is none.
func (q *rxQueue) takeFreeLocked() *rxNode {
	n := q.free
	if n != nil {
		q.free, n.next = n.next, nil
		q.nfree--
	}
	return n
}

// putFreeLocked returns a chain of nodes to the free list; past
// q.keep idle ones the collector takes the rest. The caller must not
// touch them, nor any datagram sliced from them, afterwards.
func (q *rxQueue) putFreeLocked(n *rxNode) {
	for n != nil {
		next := n.next
		if q.nfree < q.keep {
			n.next, n.n = q.free, 0
			q.free = n
			q.nfree++
		}
		n = next
	}
}

// lease fills a pump's batch with nodes, idle ones first.
func (q *rxQueue) lease(batch []*rxNode) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range batch {
		if batch[i] = q.takeFreeLocked(); batch[i] == nil {
			batch[i] = q.newNode()
		}
	}
}

// releaseBatch returns a stopping pump's batch to the free list. The
// caller must not touch the nodes, nor any datagram sliced from them,
// afterwards.
func (q *rxQueue) releaseBatch(batch []*rxNode) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, n := range batch {
		q.putFreeLocked(n)
	}
}
