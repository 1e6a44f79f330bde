package quic

import (
	"net/netip"
	"sync"
)

// Pooled packet memory for the datagram hot path.
//
// Ownership rules (see DESIGN.md §8):
//
//   - Read buffers are leased by an endpoint's pump (one per socket
//     that cannot push: every Transport socket, and a Listener's kernel
//     socket) and filled by ReadBatch. The pump routes each datagram
//     (endpoint.dest) and copies the ones a connection owns into
//     hand-off nodes; the read buffer never leaves the pump, which
//     reuses it for the next read immediately.
//   - Hand-off nodes (rxNode, 2 KiB) carry a datagram from the pump to
//     an executor. A node is filled by the pump, queued on its
//     connection's FIFO, and owned by the queue until an executor takes
//     the connection's queued nodes as one batch; the executor passes
//     each to Conn.handleDatagram, which processes the datagram
//     synchronously under c.mu, and returns the batch to the free list
//     once it has run. The datagram is valid only for the duration of
//     that call, and the frames quicwire.FrameIter decodes from it only
//     until the iterator's next step: anything a connection retains
//     past that (crypto stream data, stream segments, connection IDs,
//     tokens) must be copied out. A datagram longer than a node's
//     buffer gets a heap copy of its own, which the free list drops.
//     Each endpoint keeps its own free list, under its hand-off lock:
//     a bounded list (rxNodeKeep nodes, 128 KiB) like readBufFree's,
//     not a sync.Pool, so what it holds does not depend on when the
//     collector last ran, and it goes with its endpoint. Close returns
//     every node still queued to it. A Listener on a pushing socket
//     (simnet) uses neither: the socket hands it the network's own copy
//     of each datagram, under the same rule, and takes it back when the
//     call returns.
//   - Send buffers are leased by sendPendingLocked (and a path probe)
//     at the start of a send and released before it returns. Every
//     packet of every datagram the send emits is built in place in that
//     one buffer, and endpoint.send never retains it: simnet copies the
//     datagram, and the kernel copies it on sendmsg. So the number of
//     live send buffers follows the number of concurrent senders, not
//     of live connections. A MaxDatagramSize beyond sendBufSize grows
//     that send's buffer onto the heap; the grown slice is dropped, and
//     only the leased array goes back.
//   - Nothing else is pooled. The short-lived copies a connection makes
//     of a datagram (the pristine copy for the stateless-reset check,
//     the next-key decryption trial) are its own scratch, guarded by
//     c.mu and reused by its next datagram; no other connection ever
//     sees them.
//
// The aliasing contract is enforced by TestPoolAliasingSafety, which
// scribbles over released read buffers and idle hand-off nodes while
// handshakes are in flight, and by TestFrameStorageNotRetained, which
// destroys every received frame and the payload bytes under it (a
// hand-off node's, on a pumped endpoint) the moment its handler
// returns.

// readBufSize is the fixed size of pooled datagram read buffers: the
// largest UDP payload the pump can receive.
const readBufSize = 65536

// readBufKeep is how many idle read buffers readBufFree keeps: the
// batches of one default two-socket scanner pool (2 MiB).
const readBufKeep = 2 * readBatchSize

// readBufFree recycles the 64 KiB receive buffers of the pumps: a
// closing endpoint hands its batches to the next pump to start. It is a
// bounded free list rather than a sync.Pool, so what it keeps does not
// depend on when the collector last ran: after every pump has stopped
// it holds min(readBufKeep, buffers ever made), and the live heap of a
// process whose transports are closed is the same from run to run.
var readBufFree = make(chan *[]byte, readBufKeep)

// leaseReadBuf returns a full-size read buffer, recycled if one is idle.
func leaseReadBuf() *[]byte {
	select {
	case b := <-readBufFree:
		return b
	default:
		b := make([]byte, readBufSize)
		return &b
	}
}

// releaseReadBuf returns a read buffer for reuse; past readBufKeep idle
// ones the collector takes it. The caller must not touch the buffer
// afterwards.
func releaseReadBuf(b *[]byte) {
	select {
	case readBufFree <- b:
	default:
	}
}

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

// rxNodeSize is the size of a hand-off node, a size class of its own.
// Its buffer holds a datagram of up to 1,984 bytes, past anything a
// peer sends at this stack's default 1,350-byte budget; a longer one
// gets a heap copy of its own.
const rxNodeSize = 2048

// rxNodeKeep is how many idle nodes an endpoint keeps: a pump's batch
// four times over (128 KiB).
const rxNodeKeep = 4 * readBatchSize

// rxNode is a hand-off buffer: one datagram a pump routed, copied out
// of the pump's read buffer, waiting in its connection's FIFO for an
// executor.
type rxNode struct {
	next *rxNode // the connection's next datagram, or the next idle node
	from netip.AddrPort
	data []byte // buf[:len], or a heap copy of a datagram too long for it
	buf  [rxNodeSize - 64]byte
}

// fill copies a datagram and its source address into the node.
func (n *rxNode) fill(data []byte, from netip.AddrPort) {
	if len(data) <= len(n.buf) {
		n.data = n.buf[:copy(n.buf[:], data)]
	} else {
		n.data = append([]byte(nil), data...)
	}
	n.from, n.next = from, nil
}

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
// rxNodeKeep idle ones the collector takes the rest. The caller must
// not touch them, nor any datagram sliced from them, afterwards.
func (q *rxQueue) putFreeLocked(n *rxNode) {
	for n != nil {
		next := n.next
		if q.nfree < rxNodeKeep {
			n.next, n.data = q.free, nil
			q.free = n
			q.nfree++
		}
		n = next
	}
}

// release returns one node to the free list.
func (q *rxQueue) release(n *rxNode) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.putFreeLocked(n)
}
