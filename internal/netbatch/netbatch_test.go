package netbatch_test

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"testing"
	"time"

	"quicscan/internal/netbatch"
	"quicscan/internal/simnet"
)

// hideBatch conceals a PacketConn's BatchConn (and syscall.Conn)
// methods so netbatch.Wrap must select the portable fallback.
type hideBatch struct{ pc net.PacketConn }

func (h hideBatch) ReadFrom(p []byte) (int, net.Addr, error)  { return h.pc.ReadFrom(p) }
func (h hideBatch) WriteTo(p []byte, a net.Addr) (int, error) { return h.pc.WriteTo(p, a) }
func (h hideBatch) Close() error                              { return h.pc.Close() }
func (h hideBatch) LocalAddr() net.Addr                       { return h.pc.LocalAddr() }
func (h hideBatch) SetDeadline(t time.Time) error             { return h.pc.SetDeadline(t) }
func (h hideBatch) SetReadDeadline(t time.Time) error         { return h.pc.SetReadDeadline(t) }
func (h hideBatch) SetWriteDeadline(t time.Time) error        { return h.pc.SetWriteDeadline(t) }

// TestWrapKinds pins the implementation selection: simnet conns are
// native, concealed conns fall back.
func TestWrapKinds(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	if _, kind := netbatch.Wrap(pc); kind != netbatch.KindNative {
		t.Errorf("simnet conn wrapped as %v, want native", kind)
	}
	if _, kind := netbatch.Wrap(hideBatch{pc}); kind != netbatch.KindFallback {
		t.Errorf("concealed conn wrapped as %v, want fallback", kind)
	}
}

// chaosProfile exercises every impairment the simnet link model has,
// so the parity run below covers drop, delay, reorder, duplicate and
// corrupt decisions, each keyed by the seed, the link and the
// datagram's index in its flow.
var chaosProfile = simnet.Profile{
	Loss:      0.2,
	Latency:   2 * time.Millisecond,
	Jitter:    time.Millisecond,
	Reorder:   0.1,
	Duplicate: 0.05,
	Corrupt:   0.05,
}

// parityRun sends the same deterministic datagram sequence over a
// fresh seeded network and returns everything the receiver saw.
func parityRun(t *testing.T, hide bool) [][]byte {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: 1234, Profile: chaosProfile})
	defer n.Close()
	recv, err := n.ListenUDP(netip.MustParseAddrPort("203.0.113.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	send, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	var pc net.PacketConn = send
	if hide {
		pc = hideBatch{send}
	}
	bc, kind := netbatch.Wrap(pc)
	if hide && kind != netbatch.KindFallback {
		t.Fatalf("wrapped as %v, want fallback", kind)
	}

	const total, batch = 256, 16
	dst := netip.MustParseAddrPort("203.0.113.1:443")
	msgs := make([]netbatch.Message, batch)
	seq := 0
	for sent := 0; sent < total; {
		k := batch
		if total-sent < k {
			k = total - sent
		}
		for i := 0; i < k; i++ {
			payload := fmt.Appendf(nil, "parity-datagram-%04d-padding-to-make-corruption-visible", seq)
			msgs[i] = netbatch.Message{Buf: payload, N: len(payload), Addr: dst}
			seq++
		}
		nw, err := bc.WriteBatch(msgs[:k])
		if err != nil || nw != k {
			t.Fatalf("WriteBatch = %d, %v", nw, err)
		}
		sent += k
	}

	// Drain until the link is idle: the longest scheduled path is
	// latency + jitter + reorder hold-back, far under this deadline.
	var got [][]byte
	buf := make([]byte, 2048)
	recv.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	for {
		nn, _, err := recv.ReadFrom(buf)
		if err != nil {
			break
		}
		got = append(got, append([]byte(nil), buf[:nn]...))
	}
	return got
}

// TestFallbackNativeParity sends an identical probe sequence through
// the native batch path and the concealed one-WriteTo-per-datagram
// fallback over identically seeded impaired networks, and asserts
// the receiver observes byte-identical traffic. Both paths must number
// the flow's datagrams in the same order, so every drop, duplicate and
// bit-flip decision lands on the same probe.
func TestFallbackNativeParity(t *testing.T) {
	native := parityRun(t, false)
	fallback := parityRun(t, true)
	if len(native) != len(fallback) {
		t.Fatalf("native delivered %d datagrams, fallback %d", len(native), len(fallback))
	}
	// Delivery *order* under jitter depends on timer scheduling, so
	// compare as multisets: the seeded impairment decisions (what was
	// dropped, duplicated, corrupted) must match byte for byte.
	sortPayloads(native)
	sortPayloads(fallback)
	for i := range native {
		if !bytes.Equal(native[i], fallback[i]) {
			t.Fatalf("payload %d differs:\n  native:   %q\n  fallback: %q", i, native[i], fallback[i])
		}
	}
}

func sortPayloads(ps [][]byte) {
	sort.Slice(ps, func(i, j int) bool { return bytes.Compare(ps[i], ps[j]) < 0 })
}

// TestConcurrentBatchWriters hammers one BatchConn from many
// goroutines under -race and asserts exactly-once delivery over a
// lossless link: no payload lost, none duplicated, none torn.
func TestConcurrentBatchWriters(t *testing.T) {
	for _, mode := range []string{"native", "fallback"} {
		t.Run(mode, func(t *testing.T) {
			n := simnet.New(simnet.Config{})
			defer n.Close()
			recv, err := n.ListenUDP(netip.MustParseAddrPort("203.0.113.7:443"))
			if err != nil {
				t.Fatal(err)
			}
			send, err := n.DialUDP()
			if err != nil {
				t.Fatal(err)
			}
			var pc net.PacketConn = send
			if mode == "fallback" {
				pc = hideBatch{send}
			}
			bc, _ := netbatch.Wrap(pc)

			const writers, perWriter, batch = 8, 64, 16
			dst := netip.MustParseAddrPort("203.0.113.7:443")
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					msgs := make([]netbatch.Message, batch)
					for seq := 0; seq < perWriter; seq += batch {
						for i := 0; i < batch; i++ {
							payload := fmt.Appendf(nil, "writer-%d-seq-%03d", w, seq+i)
							msgs[i] = netbatch.Message{Buf: payload, N: len(payload), Addr: dst}
						}
						if nw, err := bc.WriteBatch(msgs); err != nil || nw != batch {
							t.Errorf("writer %d: WriteBatch = %d, %v", w, nw, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			seen := make(map[string]int)
			buf := make([]byte, 256)
			recv.SetReadDeadline(time.Now().Add(time.Second))
			for len(seen) < writers*perWriter {
				nn, _, err := recv.ReadFrom(buf)
				if err != nil {
					break
				}
				seen[string(buf[:nn])]++
			}
			if len(seen) != writers*perWriter {
				t.Fatalf("received %d distinct payloads, want %d", len(seen), writers*perWriter)
			}
			for p, c := range seen {
				if c != 1 {
					t.Errorf("payload %q delivered %d times", p, c)
				}
			}
		})
	}
}

// TestReadBatchDrainsQueue verifies the batched read contract on the
// native path: block for the first datagram, then drain what is
// already queued without blocking again.
func TestReadBatchDrainsQueue(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	recv, err := n.ListenUDP(netip.MustParseAddrPort("203.0.113.9:443"))
	if err != nil {
		t.Fatal(err)
	}
	send, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	dst := netip.MustParseAddrPort("203.0.113.9:443")
	bcS, _ := netbatch.Wrap(net.PacketConn(send))
	out := make([]netbatch.Message, 5)
	for i := range out {
		payload := fmt.Appendf(nil, "drain-%d", i)
		out[i] = netbatch.Message{Buf: payload, N: len(payload), Addr: dst}
	}
	if _, err := bcS.WriteBatch(out); err != nil {
		t.Fatal(err)
	}

	bcR, _ := netbatch.Wrap(net.PacketConn(recv))
	msgs := make([]netbatch.Message, 8)
	for i := range msgs {
		msgs[i].Buf = make([]byte, 64)
	}
	recv.SetReadDeadline(time.Now().Add(time.Second))
	got, err := bcR.ReadBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("ReadBatch drained %d datagrams, want 5", got)
	}
	for i := 0; i < got; i++ {
		want := fmt.Sprintf("drain-%d", i)
		if string(msgs[i].Buf[:msgs[i].N]) != want {
			t.Errorf("msg %d = %q, want %q", i, msgs[i].Buf[:msgs[i].N], want)
		}
		if msgs[i].Addr != send.LocalAddr().(*net.UDPAddr).AddrPort() {
			t.Errorf("msg %d source = %v, want %v", i, msgs[i].Addr, send.LocalAddr())
		}
	}

	// An expired deadline surfaces as a timeout net.Error, exactly
	// like ReadFrom.
	recv.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := bcR.ReadBatch(msgs); err == nil {
		t.Fatal("ReadBatch past deadline returned nil error")
	} else if nerr, ok := err.(net.Error); !ok || !nerr.Timeout() {
		t.Fatalf("ReadBatch past deadline returned %v, want timeout net.Error", err)
	}
}

// TestSetUDPAddr covers the in-place net.Addr bridge: 4-byte IPv4
// form (v4-mapped included), 16-byte IPv6 with and without a zone, and
// backing-array reuse (a zone must not leak into the next address).
func TestSetUDPAddr(t *testing.T) {
	ua := &net.UDPAddr{IP: make(net.IP, 0, 16)}
	cases := []string{"192.0.2.1:443", "[fe80::1%eth0]:443", "[2001:db8::1]:8443", "[::ffff:198.51.100.7]:53"}
	for _, c := range cases {
		ap := netip.MustParseAddrPort(c)
		netbatch.SetUDPAddr(ua, ap)
		want := net.UDPAddrFromAddrPort(ap)
		if ua.String() != want.String() || ua.Zone != ap.Addr().Zone() {
			t.Errorf("SetUDPAddr(%q) = %v, want %v", c, ua, want)
		}
		if ap.Addr().Unmap().Is4() && len(ua.IP) != 4 {
			t.Errorf("SetUDPAddr(%q) stored %d-byte IP, want 4", c, len(ua.IP))
		}
	}
}
