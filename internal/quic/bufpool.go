package quic

import "sync"

// Pooled packet memory for the datagram hot path.
//
// Ownership rules (see DESIGN.md §8):
//
//   - Read buffers are leased by an endpoint's pump (one per socket
//     that cannot push: every Transport socket, and a Listener's kernel
//     socket), filled by ReadBatch, and handed to Conn.handleDatagram,
//     which processes the datagram synchronously under c.mu. The
//     buffer is valid only for the duration of that call, and the
//     frames quicwire.FrameIter decodes from it only until the
//     iterator's next step: anything a connection retains past that
//     (crypto stream data, stream segments, connection IDs, tokens)
//     must be copied out. The pump reuses the buffer for the next
//     read immediately. A Listener on a pushing socket (simnet) leases
//     none: the socket hands it the network's own copy of each
//     datagram, under the same rule, and takes it back when the call
//     returns.
//   - Sized-class packet buffers back short-lived retained copies
//     (decryption scratch, next-key trials). The function that leases
//     one releases it; a leased buffer must never be stored in a
//     struct that outlives the call.
//
// The aliasing contract is enforced by TestPoolAliasingSafety, which
// scribbles over released buffers while handshakes are in flight, and
// by TestFrameStorageNotRetained, which destroys every received frame
// and the payload bytes under it the moment its handler returns.

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

// packetClassSizes are the capacity classes for retained-packet
// copies. 1536 covers every on-path MTU, 4096 jumbo frames, and the
// top class anything a 64 KiB read can produce.
var packetClassSizes = [...]int{1536, 4096, 16384, readBufSize}

var packetClassPools [len(packetClassSizes)]sync.Pool

func packetClassFor(n int) int {
	for i, size := range packetClassSizes {
		if n <= size {
			return i
		}
	}
	return -1
}

// leasePacket returns a length-n buffer backed by the smallest size
// class that holds it. Buffers above the top class fall back to a
// plain allocation (releasePacket discards them).
func leasePacket(n int) []byte {
	ci := packetClassFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if v := packetClassPools[ci].Get(); v != nil {
		return (*(v.(*[]byte)))[:n]
	}
	return make([]byte, n, packetClassSizes[ci])[:n]
}

// releasePacket returns a buffer obtained from leasePacket to its
// size-class pool. The caller must not touch the buffer afterwards.
func releasePacket(b []byte) {
	for ci, size := range packetClassSizes {
		if cap(b) == size {
			b = b[:size]
			packetClassPools[ci].Put(&b)
			return
		}
	}
	// Off-class capacity (oversized lease or resliced buffer): let the
	// GC have it rather than poison a class with the wrong capacity.
}
