package quic

import (
	"bytes"
	"context"
	"crypto/tls"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"quicscan/internal/quicwire"
)

// The hand-off from a pump to the executors (endpoint.go, rxQueue): a
// pump only routes, so one connection's receive work, however long it
// takes, holds up neither the socket nor the other connections on it.

// twoExecutors gives the test at least two executors: an endpoint
// starts up to GOMAXPROCS of them, and with one a held connection holds
// the only one.
func twoExecutors(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// heldWorld is one connection, a, dialed through a one-socket
// Transport on a simnet to the world's one Listener, and a peer socket
// on the same network, from which a test sends datagrams of its own to
// a.
type heldWorld struct {
	tr   *Transport
	l    *Listener
	a    *Conn
	peer net.PacketConn
	cfg  *Config
}

func newHeldWorld(t *testing.T) *heldWorld {
	t.Helper()
	n, l, pool := lossyWorld(t, 0, 1)
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	w := &heldWorld{l: l, cfg: &Config{
		TLS:              &tls.Config{RootCAs: pool, ServerName: "lossy.test", NextProtos: []string{"h3"}},
		HandshakeTimeout: 10 * time.Second,
	}}
	if w.tr, err = NewTransport(pc); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.tr.Close() })
	if w.a, err = w.dial(); err != nil {
		t.Fatal(err)
	}
	// Once everything a has sent is acknowledged, the server has nothing
	// more to send it: the datagrams a test sends are all a receives.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.a.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if w.peer, err = n.DialUDP(); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *heldWorld) dial() (*Conn, error) {
	return w.tr.Dial(context.Background(), w.l.Addr(), w.cfg)
}

// to is the address of the Transport's socket.
func (w *heldWorld) to() net.Addr { return w.tr.socks[0].LocalAddr() }

// hold waits until no executor holds c, a connection nothing else
// sends to, then takes c's lock and sends c one datagram from peer, so
// that an executor takes c and waits on that lock: c's receive work is
// held until the returned release runs (at cleanup at the latest).
func hold(t *testing.T, e *endpoint, c *Conn, peer net.PacketConn, to net.Addr) (release func()) {
	t.Helper()
	waitFor(t, "the connection's receive work to finish", func() bool {
		e.rx.mu.Lock()
		defer e.rx.mu.Unlock()
		return !c.rxBusy
	})
	c.mu.Lock()
	var once sync.Once
	release = func() { once.Do(c.mu.Unlock) }
	t.Cleanup(release)
	if _, err := peer.WriteTo(junkFor(c), to); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "an executor to take the held connection", func() bool {
		n, running := queuedOn(e, c, peer)
		return n == 0 && running
	})
	return release
}

// queuedOn returns how many datagrams from the address of peer (any
// address for nil) wait in c's FIFO, and whether an executor holds c.
func queuedOn(e *endpoint, c *Conn, peer net.PacketConn) (n int, running bool) {
	q := e.rx
	q.mu.Lock()
	defer q.mu.Unlock()
	for nd := c.rxHead; nd != nil; nd = nd.next {
		if peer == nil || nd.from == addrPortOf(peer.LocalAddr()) {
			n++
		}
	}
	ready := false
	for r := q.readyHead; r != nil; r = r.rxNext {
		ready = ready || r == c
	}
	return n, c.rxBusy && !ready
}

// junkFor is a short-header datagram addressed to c that its keys do
// not open: routed to c, and dropped there.
func junkFor(c *Conn) []byte {
	return append(append([]byte{0x40}, c.scid...), bytes.Repeat([]byte{0x5a}, 32)...)
}

// TestHeldConnDoesNotStallItsSocket: while connection A's receive work
// is held, connection B's handshake over the same socket completes. A
// pump that ran A's datagram itself would wait on A, and B would read
// nothing until its handshake deadline.
func TestHeldConnDoesNotStallItsSocket(t *testing.T) {
	twoExecutors(t)
	w := newHeldWorld(t)
	release := hold(t, &w.tr.endpoint, w.a, w.peer, w.to())
	b, err := w.dial()
	if err != nil {
		t.Fatalf("a handshake beside a held connection: %v", err)
	}
	defer b.Close()
	release()
	if err := w.a.Err(); err != nil {
		t.Errorf("the held connection died: %v", err)
	}
}

// TestHeldConnBurstRunsInArrivalOrder: datagrams that reach a
// connection while an executor holds it queue behind it, and run in the
// order they arrived once it is released. Each carries a PATH_CHALLENGE
// with its index, sealed with the 1-RTT keys of the server's side.
func TestHeldConnBurstRunsInArrivalOrder(t *testing.T) {
	const burst = 12
	marker := func(i int) [8]byte { return [8]byte{0xb0, 0x57, 0, 0, 0, 0, 0, byte(i)} }
	var (
		mu   sync.Mutex
		seen []int
	)
	// Set before any connection exists and cleared after every one has
	// gone, so no receive path reads the hook while it is written.
	t.Cleanup(func() { testHookFrameHandled = nil })
	testHookFrameHandled = func(f quicwire.Frame) {
		if pc, ok := f.(*quicwire.PathChallengeFrame); ok && pc.Data[0] == 0xb0 && pc.Data[1] == 0x57 {
			mu.Lock()
			seen = append(seen, int(pc.Data[7]))
			mu.Unlock()
		}
	}
	twoExecutors(t)
	w := newHeldWorld(t)
	tr, a, peer := w.tr, w.a, w.peer

	// The server's end of a, for its 1-RTT send keys.
	server := w.l.routes.liveConns()
	if len(server) == 0 {
		t.Fatal("the listener routes to no connection")
	}
	server[0].mu.Lock()
	keys := server[0].spaces[spaceApp].sendKeys
	server[0].mu.Unlock()
	const pnLen = 4
	seal := func(i int) []byte {
		pn := uint64(1000 + i) // far past anything the server has sent
		pkt, pnOff := quicwire.AppendShortHeader(nil, a.scid, pn, pnLen, false)
		pkt = append(pkt, (&quicwire.PathChallengeFrame{Data: marker(i)}).Append(nil)...)
		return keys.SealPacket(pkt, pnOff, pnLen, pn)
	}

	to := w.to()
	release := hold(t, &tr.endpoint, a, peer, to)
	for i := 0; i < burst; i++ {
		if _, err := peer.WriteTo(seal(i), to); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the burst to queue behind the held connection", func() bool {
		n, _ := queuedOn(&tr.endpoint, a, peer)
		return n == burst
	})
	release()
	waitFor(t, "the held connection to run its burst", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == burst
	})
	mu.Lock()
	defer mu.Unlock()
	for i, got := range seen {
		if got != i {
			t.Fatalf("the burst ran in the order %v, want 0 to %d", seen, burst-1)
		}
	}
}

// TestHeldConnQueueIsBounded: while an executor holds a connection, a
// pump queues at most rxQueueCap of its datagrams and drops the rest,
// each counted once under queue_full; the queued ones still run once
// the connection is released.
func TestHeldConnQueueIsBounded(t *testing.T) {
	const extra = 5
	twoExecutors(t)
	w := newHeldWorld(t)
	e := &w.tr.endpoint
	release := hold(t, e, w.a, w.peer, w.to())
	for i := 0; i < rxQueueCap+extra; i++ {
		if _, err := w.peer.WriteTo(junkFor(w.a), w.to()); err != nil {
			t.Fatal(err)
		}
	}
	full := &w.tr.tally.dropped[dropQueueFull]
	waitFor(t, "the queue to fill and the rest to drop", func() bool {
		n, _ := queuedOn(e, w.a, w.peer)
		return n == rxQueueCap && full.Load() == extra
	})
	release()
	waitFor(t, "the held connection to run its queue", func() bool {
		n, running := queuedOn(e, w.a, nil)
		return n == 0 && !running
	})
	if got := full.Load(); got != extra {
		t.Errorf("%d queue_full drops, want %d", got, extra)
	}
	if err := w.a.Err(); err != nil {
		t.Errorf("the held connection died: %v", err)
	}
}

// TestQueueCapIsTwoMiBOfNodes: whatever size its endpoint's nodes are, a
// connection's hand-off queue holds at most the 2 MiB that rxQueueCap
// one-block nodes make, and at least a pump's batch.
func TestQueueCapIsTwoMiBOfNodes(t *testing.T) {
	for _, size := range []int{1453, rxBlockBuf, rxBlockBuf + 1, 4609, maxUDPPayload + 1} {
		q := newRxQueue(size)
		if q.queueCap*size > rxQueueCap*rxNodeSize || q.queueCap < readBatchSize {
			t.Errorf("%d-byte nodes: a queue of %d (%d KiB)", size, q.queueCap, q.queueCap*size>>10)
		}
	}
	if q := newRxQueue(rxBlockBuf); q.queueCap != rxQueueCap {
		t.Errorf("one-block nodes: a queue of %d, want rxQueueCap (%d)", q.queueCap, rxQueueCap)
	}
}

// TestCloseStopsExecutors: when Transport.Close or Listener.Close
// returns, no executor of the endpoint is left, and the nodes queued on
// a held connection are back on the endpoint's free list with the ones
// already there (up to what it keeps).
func TestCloseStopsExecutors(t *testing.T) {
	twoExecutors(t)
	const burst = 8
	check := func(t *testing.T, e *endpoint, c *Conn, peer net.PacketConn, to net.Addr, closeIt func() error) {
		release := hold(t, e, c, peer, to)
		for i := 0; i < burst; i++ {
			if _, err := peer.WriteTo(junkFor(c), to); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "the burst to queue behind the held connection", func() bool {
			n, _ := queuedOn(e, c, peer)
			return n == burst
		})
		// Every node is queued, held by the executor (one at least), or
		// idle.
		queued, _ := queuedOn(e, c, nil)
		e.rx.mu.Lock()
		nodes := queued + 1 + e.rx.nfree
		e.rx.mu.Unlock()

		closed := make(chan error, 1)
		go func() { closed <- closeIt() }() // waits for c's lock to abort c
		release()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return")
		}
		q := e.rx
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.running != 0 {
			t.Errorf("%d executors left after Close", q.running)
		}
		if q.readyHead != nil || c.rxHead != nil || c.rxBusy {
			t.Errorf("datagrams still queued after Close: ready %p, head %p, busy %v", q.readyHead, c.rxHead, c.rxBusy)
		}
		if want := min(nodes, q.keep); q.nfree < want {
			t.Errorf("%d nodes on the free list after Close, want %d", q.nfree, want)
		}
	}

	t.Run("transport", func(t *testing.T) {
		w := newHeldWorld(t)
		check(t, &w.tr.endpoint, w.a, w.peer, w.to(), w.tr.Close)
	})
	t.Run("listener", func(t *testing.T) {
		// A kernel socket is pumped. The half-open connection a captured
		// Initial starts is the one held.
		scfg, _ := serverConfig(t, "held.test")
		l, addr := listenBare(t, scfg, ServerPolicy{})
		raw := newUDP(t)
		defer raw.Close()
		if _, err := raw.WriteTo(captureInitial(t), addr); err != nil {
			t.Fatal(err)
		}
		c := soleConn(t, l)
		check(t, &l.endpoint, c, raw, addr, l.Close)
	})
	t.Run("never_run", func(t *testing.T) {
		// Datagrams no executor took before the endpoint closed: with
		// none allowed to start, every one is still queued when stop
		// runs, and stop alone must hand them back.
		e := &endpoint{rx: newRxQueue(rxBlockBuf)}
		e.rx.max = 0
		conns := []*Conn{newConn(&Config{}, true), newConn(&Config{}, true)}
		for i := 0; i < burst; i++ {
			n := e.rx.newNode()
			n.n = 100
			if spare := e.handOff(conns[i%2], n); spare != nil {
				t.Fatal("handOff returned a node from an empty free list")
			}
		}
		e.rx.stop()
		q := e.rx
		if q.readyHead != nil || q.nfree != burst {
			t.Errorf("after stop: ready %p, %d nodes free; want none and %d", q.readyHead, q.nfree, burst)
		}
		for _, c := range conns {
			if c.rxHead != nil || c.rxTail != nil || c.rxBusy {
				t.Error("a connection still holds queued datagrams after stop")
			}
		}
	})
}
