package simnet

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"quicscan/internal/netbatch"
)

// The receive-queue contract: everything a reader or a sender can
// observe about a PacketConn's queue, whatever holds the datagrams.

// queuePair is a sender and an unread receiver on a perfect network.
func queuePair(t *testing.T) (src, dst *PacketConn) {
	t.Helper()
	n := New(Config{})
	t.Cleanup(n.Close)
	dst, err := n.ListenUDP(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	src, err = n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

// sendSeq writes count datagrams numbered from first. The network has
// no delay, so they are queued (or dropped) when sendSeq returns.
func sendSeq(t *testing.T, src, dst *PacketConn, first, count int) {
	t.Helper()
	var b [4]byte
	for i := first; i < first+count; i++ {
		binary.BigEndian.PutUint32(b[:], uint32(i))
		if _, err := src.WriteTo(b[:], dst.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
}

// wantSeq reads count datagrams one at a time and checks they are
// numbered consecutively from first.
func wantSeq(t *testing.T, dst *PacketConn, first, count int) {
	t.Helper()
	buf := make([]byte, 16)
	for i := first; i < first+count; i++ {
		n, _, err := dst.ReadFrom(buf)
		if err != nil {
			t.Fatalf("reading datagram %d: %v", i, err)
		}
		if got := int(binary.BigEndian.Uint32(buf[:n])); got != i {
			t.Fatalf("read datagram %d, want %d", got, i)
		}
	}
}

func batchOf(n int) []netbatch.Message {
	ms := make([]netbatch.Message, n)
	for i := range ms {
		ms[i].Buf = make([]byte, 16)
	}
	return ms
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func TestQueueOrderAcrossGrowthAndWrap(t *testing.T) {
	src, dst := queuePair(t)
	dst.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Each step leaves the head somewhere inside the ring and then
	// queues more than the ring holds, so it grows while wrapped.
	sent, read := 0, 0
	for _, step := range []struct{ send, read int }{
		{5, 3}, {6, 2}, {30, 11}, {100, 120}, {700, 1}, {3000, 3704},
	} {
		sendSeq(t, src, dst, sent, step.send)
		sent += step.send
		wantSeq(t, dst, read, step.read)
		read += step.read
	}
	if sent != read {
		t.Fatalf("test table leaves %d datagrams unread", sent-read)
	}
	// ReadBatch sees the same order, across a wrap of the grown ring.
	sendSeq(t, src, dst, sent, 600)
	ms := batchOf(64)
	for next := sent; next < sent+600; {
		got, err := dst.ReadBatch(ms)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < got; i++ {
			if seq := int(binary.BigEndian.Uint32(ms[i].Buf[:ms[i].N])); seq != next {
				t.Fatalf("batch read datagram %d, want %d", seq, next)
			}
			if ms[i].Addr.String() != src.LocalAddr().String() {
				t.Fatalf("batch source = %v, want %v", ms[i].Addr, src.LocalAddr())
			}
			next++
		}
	}
}

func TestQueueOverflowDropsNewest(t *testing.T) {
	src, dst := queuePair(t)
	dropped := mRcvbufDropped.Value()
	sendSeq(t, src, dst, 0, 5000)
	if got := mRcvbufDropped.Value() - dropped; got != 5000-rcvQueueCap {
		t.Errorf("simnet_rcvbuf_dropped_total moved by %d, want %d", got, 5000-rcvQueueCap)
	}
	// The first 4096 survive, in order, and nothing follows them.
	dst.SetReadDeadline(time.Now().Add(5 * time.Second))
	wantSeq(t, dst, 0, rcvQueueCap)
	dst.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, _, err := dst.ReadFrom(make([]byte, 16)); !isTimeout(err) {
		t.Errorf("read past the bound: err = %v, want a timeout", err)
	}
	// Draining made room again.
	sendSeq(t, src, dst, 9000, 1)
	dst.SetReadDeadline(time.Now().Add(5 * time.Second))
	wantSeq(t, dst, 9000, 1)
}

func TestReadBatchBlocksThenDrains(t *testing.T) {
	src, dst := queuePair(t)
	sendSeq(t, src, dst, 0, 5)
	ms := batchOf(3)
	for _, want := range []int{3, 2} {
		if got, err := dst.ReadBatch(ms); err != nil || got != want {
			t.Fatalf("ReadBatch = %d, %v; want %d", got, err, want)
		}
	}
	// Empty queue: the call blocks until the first datagram and returns
	// without waiting for the batch to fill.
	got := make(chan int, 1)
	go func() {
		n, _ := dst.ReadBatch(ms)
		got <- n
	}()
	select {
	case n := <-got:
		t.Fatalf("ReadBatch returned %d from an empty queue", n)
	case <-time.After(20 * time.Millisecond):
	}
	sendSeq(t, src, dst, 5, 1)
	select {
	case n := <-got:
		if n != 1 {
			t.Errorf("ReadBatch = %d, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReadBatch not woken by a datagram")
	}
}

func TestExpiredDeadlineWinsOverQueuedData(t *testing.T) {
	src, dst := queuePair(t)
	sendSeq(t, src, dst, 0, 2)
	dst.SetReadDeadline(time.Now().Add(-time.Second))
	if _, _, err := dst.ReadFrom(make([]byte, 16)); !isTimeout(err) {
		t.Errorf("ReadFrom err = %v, want a timeout", err)
	}
	if _, err := dst.ReadBatch(batchOf(2)); !isTimeout(err) {
		t.Errorf("ReadBatch err = %v, want a timeout", err)
	}
	dst.SetReadDeadline(time.Time{})
	wantSeq(t, dst, 0, 2) // the data was not consumed by the failed reads
}

// TestBlockedReadersWake: a deadline change and a Close each wake a
// reader blocked in either call.
func TestBlockedReadersWake(t *testing.T) {
	reads := map[string]func(*PacketConn) error{
		"ReadFrom":  func(pc *PacketConn) error { _, _, err := pc.ReadFrom(make([]byte, 16)); return err },
		"ReadBatch": func(pc *PacketConn) error { _, err := pc.ReadBatch(batchOf(4)); return err },
	}
	wakes := map[string]struct {
		wake func(*PacketConn)
		ok   func(error) bool
	}{
		"SetReadDeadline": {func(pc *PacketConn) { pc.SetReadDeadline(time.Now().Add(10 * time.Millisecond)) }, isTimeout},
		"Close":           {func(pc *PacketConn) { pc.Close() }, func(err error) bool { return errors.Is(err, net.ErrClosed) }},
	}
	for rname, read := range reads {
		for wname, w := range wakes {
			t.Run(rname+"/"+wname, func(t *testing.T) {
				_, dst := queuePair(t)
				done := make(chan error, 1)
				go func() { done <- read(dst) }()
				select {
				case err := <-done:
					t.Fatalf("read returned before the wake: %v", err)
				case <-time.After(10 * time.Millisecond):
				}
				w.wake(dst)
				select {
				case err := <-done:
					if !w.ok(err) {
						t.Errorf("err = %v", err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("blocked reader not woken")
				}
			})
		}
	}
}

// TestConcurrentReadersBothProgress: the wake-up signal holds one
// token, so a reader that leaves data behind must pass it on.
func TestConcurrentReadersBothProgress(t *testing.T) {
	for round := 0; round < 200; round++ {
		src, dst := queuePair(t)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, _, err := dst.ReadFrom(make([]byte, 16)); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if n, err := dst.ReadBatch(batchOf(1)); err != nil || n != 1 {
				t.Errorf("ReadBatch = %d, %v", n, err)
			}
		}()
		if round%2 == 0 {
			runtime.Gosched() // let the readers block first, some of the time
		}
		sendSeq(t, src, dst, 0, 2)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: a reader stayed blocked with its datagram queued", round)
		}
	}
}

// TestDelayedEnqueueRacesClose: jittered deliveries arrive from the
// scheduler goroutine while the destination closes. Run under -race;
// every datagram the link let through is read, or counted as dropped
// on a closed socket, or still queued when the socket closed.
func TestDelayedEnqueueRacesClose(t *testing.T) {
	n := New(Config{Seed: 3, Profile: Profile{Latency: 200 * time.Microsecond, Jitter: 200 * time.Microsecond}})
	defer n.Close()
	src, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	closedDrops := mClosedDropped.Value()
	const sockets, perSocket = 64, 50
	var wg sync.WaitGroup
	for i := 0; i < sockets; i++ {
		dst, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := make([]byte, 16)
			for {
				if _, _, err := dst.ReadFrom(buf); err != nil {
					return
				}
			}
		}()
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSocket; j++ {
				src.WriteTo([]byte("x"), dst.LocalAddr())
				if j == perSocket/2+i%8 {
					dst.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	time.Sleep(5 * time.Millisecond) // let the scheduler deliver the stragglers
	if mClosedDropped.Value() == closedDrops {
		t.Error("no delayed datagram met a closed socket; the race was not exercised")
	}
}

// TestCloseReleasesQueue: Close hands queued payloads back and keeps
// nothing; a datagram arriving afterwards is a counted drop.
func TestCloseReleasesQueue(t *testing.T) {
	src, dst := queuePair(t)
	sendSeq(t, src, dst, 0, 100)
	addr := dst.LocalAddr()
	dst.Close()
	if dst.count != 0 || dst.ring != nil {
		t.Errorf("closed socket still holds count=%d, %d slots", dst.count, len(dst.ring))
	}
	before := mClosedDropped.Value()
	dst.enqueue(datagram{payload: leasePayload(4)}) // a delivery that lost the race with Close
	if got := mClosedDropped.Value() - before; got != 1 {
		t.Errorf("simnet_closed_dropped_total moved by %d, want 1", got)
	}
	// A send to the vanished address is not a closed-socket drop: it has
	// no destination at all.
	if _, err := src.WriteTo([]byte("x"), addr); err != nil {
		t.Fatal(err)
	}
	if got := mClosedDropped.Value() - before; got != 1 {
		t.Errorf("send to an unbound address counted as a closed-socket drop")
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdleSocketFootprint: a socket costs what it carries. Ten thousand
// open, silent sockets were 2.3 GB of receive slots when each queue was
// allocated at its bound.
func TestIdleSocketFootprint(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	opened := mSocketsOpened.Value()
	before := liveHeap()
	const sockets = 10000
	held := make([]*PacketConn, sockets)
	for i := range held {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		held[i] = pc
	}
	after := liveHeap()
	if got := mSocketsOpened.Value() - opened; got != sockets {
		t.Errorf("simnet_udp_sockets_opened_total moved by %d, want %d", got, sockets)
	}
	grew := int64(after) - int64(before)
	t.Logf("%d idle sockets hold %.2f MB (%d B each)", sockets, float64(grew)/(1<<20), grew/sockets)
	// Measured 3.42 MB (3.27 before each socket could number its flows);
	// the ceiling is 5 % above it. This is the price in bytes of the
	// socket the root package's SimnetDialClose budget counts the
	// allocations of.
	if grew > 36<<20/10 {
		t.Errorf("%d idle sockets hold %.2f MB, want <= 3.6 MB", sockets, float64(grew)/(1<<20))
	}
	runtime.KeepAlive(held)
}
