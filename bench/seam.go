package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"quicscan/internal/netbatch"
)

// sockCounts is what the seam wrappers of one scanner add up: the
// program hands every socket it uses to the caller through DialPacket,
// so the bench can count at that seam without touching the program.
type sockCounts struct {
	writes, reads atomic.Uint64
	readWaitNs    atomic.Int64
	// closedSocketLifetimes adds up open-to-close of every closed socket:
	// the time readWaitNs is a share of.
	closedSocketLifetimes atomic.Int64
	firstMu               sync.Mutex
	firstWrite            []byte // copy of the first datagram written (a client Initial)
}

// countingConn forwards a net.PacketConn and counts.
type countingConn struct {
	net.PacketConn
	c      *sockCounts
	opened time.Time
}

// countingBatchConn is countingConn over a socket that batches
// natively. It forwards netbatch.BatchConn, so netbatch.Wrap still
// picks the native path and the wrapper conceals nothing.
type countingBatchConn struct {
	countingConn
	bc netbatch.BatchConn
}

// wrapConn puts the counting wrapper around pc.
func wrapConn(pc net.PacketConn, c *sockCounts) net.PacketConn {
	cc := countingConn{PacketConn: pc, c: c, opened: time.Now()}
	if bc, ok := pc.(netbatch.BatchConn); ok {
		return &countingBatchConn{countingConn: cc, bc: bc}
	}
	return &cc
}

func (c *countingConn) noteWrite(p []byte) {
	c.c.writes.Add(1)
	c.c.firstMu.Lock()
	if c.c.firstWrite == nil {
		c.c.firstWrite = append([]byte(nil), p...)
	}
	c.c.firstMu.Unlock()
}

func (c *countingConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	n, err := c.PacketConn.WriteTo(p, addr)
	if err == nil {
		c.noteWrite(p)
	}
	return n, err
}

func (c *countingConn) ReadFrom(p []byte) (int, net.Addr, error) {
	t0 := time.Now()
	n, addr, err := c.PacketConn.ReadFrom(p)
	c.c.readWaitNs.Add(time.Since(t0).Nanoseconds())
	if err == nil {
		c.c.reads.Add(1)
	}
	return n, addr, err
}

func (c *countingConn) Close() error {
	c.c.closedSocketLifetimes.Add(time.Since(c.opened).Nanoseconds())
	return c.PacketConn.Close()
}

func (c *countingBatchConn) WriteBatch(ms []netbatch.Message) (int, error) {
	n, err := c.bc.WriteBatch(ms)
	for i := 0; i < n; i++ {
		c.noteWrite(ms[i].Buf[:ms[i].N])
	}
	return n, err
}

func (c *countingBatchConn) ReadBatch(ms []netbatch.Message) (int, error) {
	t0 := time.Now()
	n, err := c.bc.ReadBatch(ms)
	c.c.readWaitNs.Add(time.Since(t0).Nanoseconds())
	c.c.reads.Add(uint64(n))
	return n, err
}
