package zmapquic

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"quicscan/internal/netbatch"
	"quicscan/internal/simnet"
)

// gatedBatchConn is a BatchConn whose first WriteBatch blocks until
// released, so a test can pile concurrent SendProbe callers onto the
// flush lock and observe them combined into one batch. Every flushed
// batch's addresses are recorded.
type gatedBatchConn struct {
	entered chan struct{} // closed when the first WriteBatch is in flight
	gate    chan struct{} // first WriteBatch waits for this to close

	// result, when set, overrides the outcome of the numbered call
	// (1-based). Used to inject partial-send errors.
	result func(call int, n int) (int, error)

	mu      sync.Mutex
	once    sync.Once
	calls   int
	batches [][]netip.AddrPort
}

func newGatedBatchConn() *gatedBatchConn {
	return &gatedBatchConn{
		entered: make(chan struct{}),
		gate:    make(chan struct{}),
	}
}

func (g *gatedBatchConn) WriteBatch(ms []netbatch.Message) (int, error) {
	g.mu.Lock()
	g.calls++
	call := g.calls
	addrs := make([]netip.AddrPort, len(ms))
	for i := range ms {
		addrs[i] = ms[i].Addr
	}
	g.batches = append(g.batches, addrs)
	g.mu.Unlock()

	if call == 1 {
		g.once.Do(func() { close(g.entered) })
		<-g.gate
	}
	if g.result != nil {
		if n, err := g.result(call, len(ms)); err != nil || n != len(ms) {
			return n, err
		}
	}
	return len(ms), nil
}

func (g *gatedBatchConn) ReadBatch(ms []netbatch.Message) (int, error) {
	select {} // never read in these tests
}

func (g *gatedBatchConn) snapshot() (calls int, batches [][]netip.AddrPort) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls, append([][]netip.AddrPort(nil), g.batches...)
}

func (g *gatedBatchConn) ReadFrom(p []byte) (int, net.Addr, error) { select {} }
func (g *gatedBatchConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	return g.WriteBatch([]netbatch.Message{{Buf: p, N: len(p), Addr: netip.AddrPort{}}})
}
func (g *gatedBatchConn) Close() error { return nil }
func (g *gatedBatchConn) LocalAddr() net.Addr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}
}
func (g *gatedBatchConn) SetDeadline(time.Time) error      { return nil }
func (g *gatedBatchConn) SetReadDeadline(time.Time) error  { return nil }
func (g *gatedBatchConn) SetWriteDeadline(time.Time) error { return nil }

// TestSendProbeCombinesConcurrentCallers holds the first flush in the
// syscall while more SendProbe callers deposit, then verifies the
// deposits were flushed together: every probe sent exactly once, in
// far fewer WriteBatch calls than probes.
func TestSendProbeCombinesConcurrentCallers(t *testing.T) {
	g := newGatedBatchConn()
	s := &Scanner{Conn: g}

	first := make(chan error, 1)
	go func() {
		_, err := s.SendProbe(netip.AddrFrom4([4]byte{100, 80, 0, 0}))
		first <- err
	}()
	<-g.entered // flusher is inside WriteBatch, holding the flush lock

	const depositors = 8
	errs := make(chan error, depositors)
	for i := 1; i <= depositors; i++ {
		go func(i int) {
			_, err := s.SendProbe(netip.AddrFrom4([4]byte{100, 80, 0, byte(i)}))
			errs <- err
		}(i)
	}
	// Give the depositors time to queue on the flush lock, then let
	// the gated first flush complete.
	time.Sleep(200 * time.Millisecond)
	close(g.gate)

	if err := <-first; err != nil {
		t.Fatalf("gated SendProbe: %v", err)
	}
	for i := 0; i < depositors; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("deposited SendProbe: %v", err)
		}
	}

	calls, batches := g.snapshot()
	seen := make(map[netip.AddrPort]int)
	total, maxBatch := 0, 0
	for _, b := range batches {
		total += len(b)
		if len(b) > maxBatch {
			maxBatch = len(b)
		}
		for _, a := range b {
			seen[a]++
		}
	}
	if total != depositors+1 || len(seen) != depositors+1 {
		t.Fatalf("flushed %d probes over %d addrs, want %d exactly-once", total, len(seen), depositors+1)
	}
	for a, c := range seen {
		if c != 1 {
			t.Errorf("probe to %v flushed %d times", a, c)
		}
	}
	if len(batches[0]) != 1 {
		t.Errorf("first flush carried %d probes, want 1", len(batches[0]))
	}
	if maxBatch < 2 {
		t.Errorf("no combining happened: %d calls, largest batch %d", calls, maxBatch)
	}
}

// TestSendProbePartialBatchError injects a partial send into a
// combined batch: the slots before the cut report success, the tail
// reports the batch error.
func TestSendProbePartialBatchError(t *testing.T) {
	boom := errors.New("boom")
	g := newGatedBatchConn()
	g.result = func(call, n int) (int, error) {
		if call == 2 {
			return 1, boom
		}
		return n, nil
	}
	s := &Scanner{Conn: g}

	first := make(chan error, 1)
	go func() {
		_, err := s.SendProbe(netip.AddrFrom4([4]byte{100, 81, 0, 0}))
		first <- err
	}()
	<-g.entered

	const depositors = 3
	type res struct {
		sent bool
		err  error
	}
	results := make(chan res, depositors)
	for i := 1; i <= depositors; i++ {
		go func(i int) {
			sent, err := s.SendProbe(netip.AddrFrom4([4]byte{100, 81, 0, byte(i)}))
			results <- res{sent, err}
		}(i)
	}
	time.Sleep(200 * time.Millisecond)
	close(g.gate)

	if err := <-first; err != nil {
		t.Fatalf("gated SendProbe: %v", err)
	}
	okCount, errCount := 0, 0
	for i := 0; i < depositors; i++ {
		r := <-results
		switch {
		case r.sent && r.err == nil:
			okCount++
		case !r.sent && errors.Is(r.err, boom):
			errCount++
		default:
			t.Errorf("unexpected result sent=%v err=%v", r.sent, r.err)
		}
	}
	if okCount != 1 || errCount != depositors-1 {
		t.Errorf("partial send of 1/%d reported %d ok, %d failed; want 1 ok, %d failed",
			depositors, okCount, errCount, depositors-1)
	}
}

// TestSendProbeConcurrentHammer drives SendProbe from many goroutines
// over simnet and counts arrivals: the combiner must deliver every
// probe exactly once regardless of how deposits and flushes
// interleave. Run under -race this also exercises the two-lock
// deposit/flush protocol.
func TestSendProbeConcurrentHammer(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()

	target := netip.AddrFrom4([4]byte{203, 0, 113, 7})
	rc, err := n.ListenUDP(netip.AddrPortFrom(target, 443))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	s := &Scanner{Conn: pc}

	const workers, perWorker = 16, 128
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sent, err := s.SendProbe(target)
				if err != nil || !sent {
					t.Errorf("SendProbe: sent=%v err=%v", sent, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	got := 0
	buf := make([]byte, 2048)
	rc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	for {
		if _, _, err := rc.ReadFrom(buf); err != nil {
			break
		}
		got++
	}
	if got != workers*perWorker {
		t.Errorf("received %d probes, want %d", got, workers*perWorker)
	}
}

// flakyBatchConn fails every 7th WriteBatch after sending the first half
// of it, and remembers by target address which probes it let through.
// An address encodes its caller's probe index (see probeAddr).
type flakyBatchConn struct {
	gatedBatchConn // for the net.PacketConn methods; the gate is unused

	mu    sync.Mutex
	calls int
	left  []bool // by probe index
}

var errFlaky = errors.New("flaky conn: send cut short")

func probeAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

func (f *flakyBatchConn) WriteBatch(ms []netbatch.Message) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	n, err := len(ms), error(nil)
	if f.calls%7 == 0 {
		n, err = len(ms)/2, errFlaky
	}
	for i := range ms[:n] {
		a := ms[i].Addr.Addr().As4()
		f.left[int(a[1])<<16|int(a[2])<<8|int(a[3])] = true
	}
	return n, err
}

// TestSendProbeBatchReuse: batches carry their own combining state and
// go back to the pool from whichever depositor reads its slot last, so
// under concurrent callers and failing flushes every caller must still
// get the verdict of its own slot in its own batch, and a recycled
// batch must come back clean.
func TestSendProbeBatchReuse(t *testing.T) {
	const workers, perWorker = 8, 20000
	f := &flakyBatchConn{left: make([]bool, workers*perWorker)}
	s := &Scanner{Conn: f}

	verdicts := make([]bool, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				sent, err := s.SendProbe(probeAddr(i))
				if sent != (err == nil) || (err != nil && !errors.Is(err, errFlaky)) {
					t.Errorf("probe %d: sent=%v err=%v", i, sent, err)
					return
				}
				verdicts[i] = sent
			}
		}(w)
	}
	wg.Wait()

	sent, failed := 0, 0
	for i, ok := range verdicts {
		if ok != f.left[i] {
			t.Fatalf("probe %d: caller was told sent=%v, the conn says %v", i, ok, f.left[i])
		}
		if ok {
			sent++
		} else {
			failed++
		}
	}
	if sent+failed != workers*perWorker || failed == 0 {
		t.Errorf("sent %d + failed %d of %d probes", sent, failed, workers*perWorker)
	}
	if s.cpend != nil {
		t.Error("a batch is still pending after every caller returned")
	}
	// Whatever the pool still holds is what the next caller would get.
	for {
		v := s.batchPool.Get()
		if v == nil {
			break
		}
		if b := v.(*sendBatch); b.n != 0 || b.read != 0 || b.sent != 0 || b.flushed || b.err != nil {
			t.Fatalf("pooled batch not reset: n=%d read=%d sent=%d flushed=%v err=%v", b.n, b.read, b.sent, b.flushed, b.err)
		}
	}
}
