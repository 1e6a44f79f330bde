package zmapquic

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"quicscan/internal/netbatch"
	"quicscan/internal/simnet"
)

// TestSendProbeConcurrentHammer drives SendProbe from many goroutines
// over simnet and counts arrivals: every probe is delivered exactly
// once, however the callers interleave.
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
// of it (of a one-probe batch: nothing), and remembers by target address
// which probes it let through. An address encodes its caller's probe
// index (see probeAddr).
type flakyBatchConn struct {
	net.PacketConn // never called: SendProbe only writes, and in batches

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

func (f *flakyBatchConn) ReadBatch([]netbatch.Message) (int, error) { select {} }

// TestSendProbeBatchReuse: every SendProbe is its own send from a batch
// of the shared pool, so under concurrent callers and a conn that fails
// every 7th send exactly the callers whose send failed must be told so,
// the sent counter must move by what left and nothing else, and a
// recycled batch must come back clean: still the template everywhere
// but in the connection IDs.
func TestSendProbeBatchReuse(t *testing.T) {
	const workers, perWorker = 8, 20000
	f := &flakyBatchConn{left: make([]bool, workers*perWorker)}
	s := &Scanner{Conn: f}
	sentBefore := mProbesSent.Value()

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
	if want := workers * perWorker / 7; sent+failed != workers*perWorker || failed != want {
		t.Errorf("sent %d + failed %d of %d probes, want %d failed", sent, failed, workers*perWorker, want)
	}
	if got := mProbesSent.Value() - sentBefore; got != uint64(sent) {
		t.Errorf("zmapquic_probes_sent_total moved by %d, %d probes left the conn", got, sent)
	}
	// Whatever the pool still holds is what the next caller would get.
	tmpl := append([]byte(nil), s.template()...)
	for {
		v := s.batchPool.Get()
		if v == nil {
			break
		}
		b := v.(*sendBatch)
		for i := range b.msgs {
			m := &b.msgs[i]
			got := append([]byte(nil), m.Buf[:m.N]...)
			copy(got[probeDCIDOff:], tmpl[probeDCIDOff:probeSCIDOff+8])
			if !bytes.Equal(got, tmpl) {
				t.Fatalf("pooled batch slot %d is no longer a template copy", i)
			}
		}
	}
}
