package simnet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The push contract (PacketConn.Serve): what a server that registers a
// handler instead of reading can rely on. Run under -race.

// served binds a socket at addr and serves it with handler.
func served(t *testing.T, n *Network, addr string, handler func([]byte, netip.AddrPort)) *PacketConn {
	t.Helper()
	pc, err := n.ListenUDP(ap(addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Serve(handler, nil); err != nil {
		t.Fatal(err)
	}
	return pc
}

// TestServeCallsNeverOverlap: eight senders on a perfect link each call
// the handler on their own goroutine; the calls still come one at a
// time. The handler yields halfway, inviting the others in; calls is a
// plain int, so an overlap is also a race report.
func TestServeCallsNeverOverlap(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	const senders, each = 8, 500
	var inside atomic.Int32
	calls, overlaps := 0, 0
	dst := served(t, n, "192.0.2.1:443", func([]byte, netip.AddrPort) {
		if inside.Add(1) != 1 {
			overlaps++
		}
		runtime.Gosched()
		calls++
		inside.Add(-1)
	})
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		src, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				src.WriteTo([]byte("x"), dst.LocalAddr())
			}
		}()
	}
	wg.Wait()
	if calls != senders*each || overlaps != 0 {
		t.Errorf("handler called %d times with %d overlaps, want %d and 0", calls, overlaps, senders*each)
	}
}

// TestServeInDueOrder: delayed datagrams reach the handler from the
// scheduler in the order they fall due, not the order they were sent.
// Due times sit on a 5 ms grid and all sends land within one step, so
// the expected order is by grid slot, then by send order.
func TestServeInDueOrder(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	const count, step = 24, 5 * time.Millisecond
	got := make(chan int, count)
	dst := served(t, n, "192.0.2.1:443", func(p []byte, _ netip.AddrPort) {
		got <- int(p[0])
	})
	src, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	slot := func(i int) time.Duration { return time.Duration(i*5%8+1) * step }
	start := time.Now()
	for i := 0; i < count; i++ {
		payload := leasePayload(1)
		payload[0] = byte(i)
		n.scheduleAfter(src, dst, datagram{payload: payload}, slot(i))
	}
	if span := time.Since(start); span >= step {
		t.Skipf("scheduling took %v, longer than one %v step; the due order is ambiguous", span, step)
	}
	var want []int
	for s := 1; s <= 8; s++ {
		for i := 0; i < count; i++ {
			if slot(i) == time.Duration(s)*step {
				want = append(want, i)
			}
		}
	}
	for k, w := range want {
		select {
		case i := <-got:
			if i != w {
				t.Fatalf("delivery %d was datagram %d, want %d (due %v)", k, i, w, slot(w))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d datagrams delivered", k, count)
		}
	}
}

// TestServeAfterClose: once Close has returned the handler is never
// called again; a datagram already in flight then counts as a drop on
// a closed socket. onClose runs exactly once.
func TestServeAfterClose(t *testing.T) {
	n := New(Config{Profile: Profile{Latency: 20 * time.Millisecond}})
	defer n.Close()
	var calls, closes atomic.Int32
	dst, err := n.ListenUDP(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Serve(func([]byte, netip.AddrPort) { calls.Add(1) }, func() { closes.Add(1) }); err != nil {
		t.Fatal(err)
	}
	src, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	before := mClosedDropped.Value()
	src.WriteTo([]byte("in flight"), dst.LocalAddr())
	dst.Close()
	dst.Close()
	dst.enqueue(datagram{payload: leasePayload(4)}) // a delivery that lost the race with Close
	deadline := time.Now().Add(5 * time.Second)
	for mClosedDropped.Value()-before < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := mClosedDropped.Value() - before; got != 2 {
		t.Errorf("simnet_closed_dropped_total moved by %d, want 2", got)
	}
	if calls.Load() != 0 || closes.Load() != 1 {
		t.Errorf("after Close: %d handler calls, %d onClose calls; want 0 and 1", calls.Load(), closes.Load())
	}
	if err := dst.Serve(func([]byte, netip.AddrPort) {}, nil); err == nil {
		t.Error("Serve on a closed socket succeeded")
	}
}

// TestServeHandlerOwnsCopy: the handler may decrypt in place, so it is
// handed the network's copy; the sender's bytes stay as they were.
func TestServeHandlerOwnsCopy(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	dst := served(t, n, "192.0.2.1:443", func(p []byte, _ netip.AddrPort) {
		for i := range p {
			p[i] = 0xff
		}
	})
	src, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	sent := []byte("plaintext the sender still owns")
	keep := bytes.Clone(sent)
	if _, err := src.WriteTo(sent, dst.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent, keep) {
		t.Errorf("sender's buffer now %q, want %q", sent, keep)
	}
}

// TestServeQueuedFirst: datagrams that arrived before Serve go to the
// handler first, in arrival order.
func TestServeQueuedFirst(t *testing.T) {
	src, dst := queuePair(t)
	sendSeq(t, src, dst, 0, 3)
	var got []int
	if err := dst.Serve(func(p []byte, _ netip.AddrPort) {
		got = append(got, int(binary.BigEndian.Uint32(p)))
	}, nil); err != nil {
		t.Fatal(err)
	}
	sendSeq(t, src, dst, 3, 2)
	if len(got) != 5 || got[0] != 0 || got[2] != 2 || got[4] != 4 {
		t.Errorf("handler saw %v, want [0 1 2 3 4]", got)
	}
}

// TestServeToServeNoDeadlock: two serving sockets answer each other and
// themselves from inside their handlers, on a perfect link, with both
// chains running at once. Delivered inline, A's handler would wait for
// B's while B's waits for A's (and a self-send for its own); the
// scheduler breaks every such cycle.
func TestServeToServeNoDeadlock(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	const hops = 200
	var a, b *PacketConn
	done := make(chan byte, 2)
	relay := func(self, peer **PacketConn) func([]byte, netip.AddrPort) {
		return func(p []byte, _ netip.AddrPort) {
			chain, hop := p[0], binary.BigEndian.Uint16(p[1:])
			if hop == hops {
				done <- chain
				return
			}
			next := []byte{chain, 0, 0}
			binary.BigEndian.PutUint16(next[1:], hop+1)
			to := *peer
			if hop%3 == 0 {
				to = *self
			}
			(*self).WriteTo(next, to.LocalAddr())
		}
	}
	a = served(t, n, "192.0.2.1:443", relay(&a, &b))
	b = served(t, n, "192.0.2.2:443", relay(&b, &a))
	var wg sync.WaitGroup
	for chain, first := range []*PacketConn{a, b} {
		src, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			src.WriteTo([]byte{byte(chain), 0, 0}, first.LocalAddr())
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of 2 relay chains finished; the handlers are stuck", i)
		}
	}
	wg.Wait()
}
