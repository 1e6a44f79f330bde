// Package netbatch is the batched datagram I/O seam that lets the
// scanners amortize kernel crossings: one sendmmsg(2)/recvmmsg(2)
// syscall moves up to a whole batch of datagrams, which is how ZMap
// (and the QUIC-Interop measurement tooling) sustain line-rate sweeps
// where a WriteTo-per-datagram loop saturates on syscall overhead.
//
// Three implementations hide behind one interface:
//
//   - native: the PacketConn implements BatchConn itself (simnet does,
//     so the syscall-count win is benchmarkable in-tree);
//   - syscall: on Linux, raw SYS_SENDMMSG/SYS_RECVMMSG over the
//     socket's RawConn, integrated with the runtime poller so read
//     deadlines and blocking semantics match net.PacketConn;
//   - fallback: a portable loop over WriteTo/ReadFrom for every other
//     platform (or the "portable" build tag), one datagram per call.
//
// Buffer ownership: a Message's Buf belongs to the caller. WriteBatch
// reads Buf[:N] during the call only; ReadBatch fills Buf and reports
// the length in N. Neither retains the slice, so callers can pool and
// reuse message buffers across calls (the copy-on-retain rule of
// DESIGN.md §8 applies downstream, not here).
package netbatch

import (
	"errors"
	"net"
	"net/netip"
	"sync"

	"quicscan/internal/telemetry"
)

// Registry metrics for the batch layer (the netbatch_* family).
// Syscall counters price the Linux fast path (datagrams moved per
// kernel crossing); fallback counters are one-per-datagram, so the
// ratio of the two families is the amortization factor.
var (
	mSendmmsg       = telemetry.Default().Counter("netbatch_sendmmsg_total")
	mRecvmmsg       = telemetry.Default().Counter("netbatch_recvmmsg_total")
	mFallbackWrites = telemetry.Default().Counter("netbatch_fallback_writes_total")
	mFallbackReads  = telemetry.Default().Counter("netbatch_fallback_reads_total")
)

// Message is one datagram in a batch: payload buffer, payload length,
// and the peer address (destination for writes, source for reads).
// netip.AddrPort keeps the hot path free of net.Addr allocations.
type Message struct {
	// Buf is the payload buffer, owned by the caller. It must be
	// non-empty for ReadBatch (there is nowhere to put the datagram
	// otherwise).
	Buf []byte
	// N is the payload length: WriteBatch sends Buf[:N], ReadBatch
	// sets it to the bytes received (truncating oversized datagrams
	// into Buf exactly as ReadFrom does).
	N int
	// Addr is the destination (writes) or source (reads).
	Addr netip.AddrPort
}

// BatchConn moves batches of datagrams in single calls.
//
// WriteBatch sends ms[i].Buf[:ms[i].N] to ms[i].Addr for every
// message and returns how many were handed to the network; on error
// the count says how many made it out first. ReadBatch blocks until
// at least one datagram is available (honoring read deadlines set on
// the underlying socket), drains opportunistically up to len(ms)
// without blocking again, and returns the number of messages filled.
// Both directions are safe for concurrent use by multiple goroutines.
type BatchConn interface {
	WriteBatch(ms []Message) (int, error)
	ReadBatch(ms []Message) (int, error)
}

// Kind says which implementation Wrap selected.
type Kind int

const (
	// KindFallback is the portable one-datagram-per-call loop.
	KindFallback Kind = iota
	// KindSyscall is the Linux sendmmsg/recvmmsg path.
	KindSyscall
	// KindNative means the conn implements BatchConn itself.
	KindNative
)

func (k Kind) String() string {
	switch k {
	case KindSyscall:
		return "syscall"
	case KindNative:
		return "native"
	default:
		return "fallback"
	}
}

// Wrap selects the best batch implementation for pc: the conn's own
// BatchConn if it has one, the Linux syscall path for real UDP
// sockets, and the portable fallback loop otherwise. The wire traffic
// is identical across all three — only the syscall count differs —
// which the parity tests assert.
func Wrap(pc net.PacketConn) (BatchConn, Kind) {
	if bc, ok := pc.(BatchConn); ok {
		return bc, KindNative
	}
	if bc, ok := newSyscallBatchConn(pc); ok {
		return bc, KindSyscall
	}
	return &fallbackConn{pc: pc}, KindFallback
}

// errEmptyBuf rejects ReadBatch messages with nowhere to put data.
var errEmptyBuf = errors.New("netbatch: ReadBatch message has empty Buf")

// SetUDPAddr rewrites ua in place to hold ap, reusing the IP backing
// array — the allocation-free bridge for APIs that still want a
// net.Addr. IPv4 addresses (including v4-mapped) are written in
// 4-byte form so String() round-trips match net.UDPAddrFromAddrPort;
// an IPv6 zone is kept, so a reply to a link-local peer finds its
// interface.
func SetUDPAddr(ua *net.UDPAddr, ap netip.AddrPort) {
	a := ap.Addr().Unmap()
	if a.Is4() {
		a4 := a.As4()
		ua.IP = append(ua.IP[:0], a4[:]...)
	} else {
		a16 := a.As16()
		ua.IP = append(ua.IP[:0], a16[:]...)
	}
	ua.Port = int(ap.Port())
	ua.Zone = a.Zone()
}

// udpAddrPool recycles the scratch addresses of the fallback writer,
// which may be entered from many goroutines at once.
var udpAddrPool = sync.Pool{
	New: func() any { return &net.UDPAddr{IP: make(net.IP, 0, 16)} },
}

// fallbackConn is the portable implementation: one WriteTo/ReadFrom
// per datagram. Semantics match the syscall path exactly; only the
// kernel-crossing count differs.
type fallbackConn struct {
	pc net.PacketConn
}

func (c *fallbackConn) WriteBatch(ms []Message) (int, error) {
	ua := udpAddrPool.Get().(*net.UDPAddr)
	defer udpAddrPool.Put(ua)
	for i := range ms {
		SetUDPAddr(ua, ms[i].Addr)
		if _, err := c.pc.WriteTo(ms[i].Buf[:ms[i].N], ua); err != nil {
			return i, err
		}
		mFallbackWrites.Inc()
	}
	return len(ms), nil
}

func (c *fallbackConn) ReadBatch(ms []Message) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if len(ms[0].Buf) == 0 {
		return 0, errEmptyBuf
	}
	// ReadFrom offers no way to drain a second datagram without
	// risking a block, so the portable path fills one message per
	// call — exactly the pre-batch behavior.
	n, from, err := c.pc.ReadFrom(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	mFallbackReads.Inc()
	ms[0].N = n
	ms[0].Addr = addrPortOf(from)
	return 1, nil
}

// addrPortOf extracts the AddrPort from the address types datagram
// sockets return, unmapped as sockaddrToAddrPort does: a dual-stack
// socket reports an IPv4 source as ::ffff:a.b.c.d. A zone is kept.
func addrPortOf(addr net.Addr) netip.AddrPort {
	var ap netip.AddrPort
	if ua, ok := addr.(*net.UDPAddr); ok {
		ap = ua.AddrPort()
	} else {
		ap, _ = netip.ParseAddrPort(addr.String())
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}
