package simnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/netbatch"
)

func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

func TestUDPDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	srv, err := n.ListenUDP(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := cli.WriteTo([]byte("ping"), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	srv.SetReadDeadline(time.Now().Add(time.Second))
	nn, from, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nn]) != "ping" {
		t.Errorf("payload = %q", buf[:nn])
	}
	// Reply using the sender address.
	if _, err := srv.WriteTo([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(time.Now().Add(time.Second))
	nn, from2, err := cli.ReadFrom(buf)
	if err != nil || string(buf[:nn]) != "pong" {
		t.Fatalf("reply: %q %v", buf[:nn], err)
	}
	if from2.String() != srv.LocalAddr().String() {
		t.Errorf("reply source = %v", from2)
	}

	dg, by := n.UDPTraffic()
	if dg != 2 || by != 8 {
		t.Errorf("traffic = %d datagrams, %d bytes", dg, by)
	}
}

func TestAddressInUse(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	if _, err := n.ListenUDP(ap("192.0.2.1:443")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ListenUDP(ap("192.0.2.1:443")); err == nil {
		t.Error("double bind succeeded")
	}
	// Rebinding after close works.
	pc, _ := n.ListenUDP(ap("192.0.2.2:443"))
	pc.Close()
	if _, err := n.ListenUDP(ap("192.0.2.2:443")); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestReadDeadline(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	pc, _ := n.DialUDP()
	pc.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, _, err := pc.ReadFrom(make([]byte, 10))
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("deadline ignored")
	}
	// Moving the deadline forward while blocked must take effect.
	pc.SetReadDeadline(time.Now().Add(time.Hour))
	done := make(chan error, 1)
	go func() {
		_, _, err := pc.ReadFrom(make([]byte, 10))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	pc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	select {
	case err := <-done:
		if nerr, ok := err.(net.Error); !ok || !nerr.Timeout() {
			t.Errorf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shortened deadline not honoured")
	}
}

// TestDeadlineErrorIsKernels: a read that runs out of time fails the way
// a kernel socket's does, with os.ErrDeadlineExceeded, which is also a
// net.Error whose Timeout is true — for a deadline already past when the
// read starts and for one that passes while it waits, through ReadFrom
// and through ReadBatch.
func TestDeadlineErrorIsKernels(t *testing.T) {
	reads := map[string]func(*PacketConn) error{
		"ReadFrom": func(pc *PacketConn) error {
			_, _, err := pc.ReadFrom(make([]byte, 10))
			return err
		},
		"ReadBatch": func(pc *PacketConn) error {
			_, err := pc.ReadBatch([]netbatch.Message{{Buf: make([]byte, 10)}})
			return err
		},
	}
	deadlines := map[string]time.Duration{"past": -time.Hour, "while-waiting": 10 * time.Millisecond}
	for rname, read := range reads {
		for dname, d := range deadlines {
			t.Run(rname+"/"+dname, func(t *testing.T) {
				n := New(Config{})
				defer n.Close()
				pc, err := n.DialUDP()
				if err != nil {
					t.Fatal(err)
				}
				pc.SetReadDeadline(time.Now().Add(d))
				err = read(pc)
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Errorf("err = %v, want os.ErrDeadlineExceeded", err)
				}
				var nerr net.Error
				if !errors.As(err, &nerr) || !nerr.Timeout() {
					t.Errorf("err = %v, want a net.Error with Timeout() true", err)
				}
			})
		}
	}
}

func TestSyntheticResponder(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		if dst.Port() != 443 {
			return nil
		}
		return [][]byte{append([]byte("echo:"), payload...)}
	})

	cli, _ := n.DialUDP()
	cli.WriteTo([]byte("probe"), net.UDPAddrFromAddrPort(ap("203.0.113.9:443")))
	buf := make([]byte, 100)
	cli.SetReadDeadline(time.Now().Add(time.Second))
	nn, from, err := cli.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nn]) != "echo:probe" {
		t.Errorf("payload = %q", buf[:nn])
	}
	if from.String() != "203.0.113.9:443" {
		t.Errorf("source = %v", from)
	}
	// Port without responder behaviour: silence.
	cli.WriteTo([]byte("probe"), net.UDPAddrFromAddrPort(ap("203.0.113.9:80")))
	cli.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := cli.ReadFrom(buf); err == nil {
		t.Error("unexpected response")
	}
}

func TestSocketTakesPrecedenceOverSynth(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.SetSyntheticResponder(func(netip.AddrPort, []byte) [][]byte {
		return [][]byte{[]byte("synthetic")}
	})
	srv, _ := n.ListenUDP(ap("192.0.2.5:443"))
	cli, _ := n.DialUDP()
	cli.WriteTo([]byte("x"), srv.LocalAddr())
	srv.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 10)
	if _, _, err := srv.ReadFrom(buf); err != nil {
		t.Fatalf("socket did not receive: %v", err)
	}
}

func TestLossDropsDatagrams(t *testing.T) {
	n := New(Config{Profile: Profile{Loss: 1.0}, Seed: 1})
	defer n.Close()
	srv, _ := n.ListenUDP(ap("192.0.2.1:443"))
	cli, _ := n.DialUDP()
	cli.WriteTo([]byte("x"), srv.LocalAddr())
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := srv.ReadFrom(make([]byte, 10)); err == nil {
		t.Error("datagram survived 100% loss")
	}
}

func TestLatency(t *testing.T) {
	n := New(Config{Profile: Profile{Latency: 30 * time.Millisecond}})
	defer n.Close()
	srv, _ := n.ListenUDP(ap("192.0.2.1:443"))
	cli, _ := n.DialUDP()
	start := time.Now()
	cli.WriteTo([]byte("x"), srv.LocalAddr())
	srv.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, err := srv.ReadFrom(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delivered after %v, latency not applied", d)
	}
}

func TestStreamPlane(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	l, err := n.ListenStream(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		io.Copy(c, c) // echo
	}()

	c, err := n.DialStream(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	if c.RemoteAddr().String() != "192.0.2.1:443" {
		t.Errorf("remote = %v", c.RemoteAddr())
	}
	msg := []byte("hello stream")
	go c.Write(msg)
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(c, buf); err != nil || !bytes.Equal(buf, msg) {
		t.Errorf("echo = %q, %v", buf, err)
	}
	c.Close()
	wg.Wait()

	// Refused connection.
	if _, err := n.DialStream(ap("192.0.2.99:443")); err != errConnectionRefused {
		t.Errorf("dial unbound = %v", err)
	}
	l.Close()
	if _, err := n.DialStream(ap("192.0.2.1:443")); err != errConnectionRefused {
		t.Errorf("dial closed = %v", err)
	}
}

// TestStreamListenerSeveralAddresses: one listener answers on every
// address it binds, each accepted connection says which was dialled,
// and a bind that collides binds nothing.
func TestStreamListenerSeveralAddresses(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	addrs := []netip.AddrPort{ap("192.0.2.1:443"), ap("[2001:db8::1]:443")}
	l, err := n.ListenStream(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		c, err := n.DialStream(a)
		if err != nil {
			t.Fatalf("dial %v: %v", a, err)
		}
		defer c.Close()
		s, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := s.LocalAddr().String(); got != a.String() {
			t.Errorf("accepted connection's local address = %s, want %s", got, a)
		}
	}
	if _, err := n.ListenStream(ap("192.0.2.2:443"), addrs[1]); err == nil {
		t.Error("a bind over an address in use succeeded")
	}
	if _, err := n.DialStream(ap("192.0.2.2:443")); err != errConnectionRefused {
		t.Errorf("a failed bind left 192.0.2.2:443 bound: dial = %v", err)
	}
	l.Close()
	for _, a := range addrs {
		if _, err := n.DialStream(a); err != errConnectionRefused {
			t.Errorf("dial %v after Close = %v", a, err)
		}
	}
}

// TestStreamListenerCloseResetsQueued: a connection dialled but never
// accepted fails at once when its listener closes, as a kernel's reset
// makes it, instead of waiting out its read deadline.
func TestStreamListenerCloseResetsQueued(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	l, err := n.ListenStream(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.DialStream(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.Close()
	c.SetReadDeadline(time.Now().Add(time.Second))
	_, err = c.Read(make([]byte, 1))
	if err == nil || os.IsTimeout(err) {
		t.Errorf("read on a connection its listener dropped = %v, want an immediate error", err)
	}
}

func TestEphemeralAddressesUnique(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		a := pc.LocalAddr().String()
		if seen[a] {
			t.Fatalf("duplicate ephemeral address %s", a)
		}
		seen[a] = true
	}
}

func TestNetworkCloseUnblocksReaders(t *testing.T) {
	n := New(Config{})
	pc, _ := n.DialUDP()
	done := make(chan error, 1)
	go func() {
		_, _, err := pc.ReadFrom(make([]byte, 10))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	n.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("read succeeded after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader not unblocked by close")
	}
}

// TestConcurrentStress exercises the UDP plane with many endpoints
// sending concurrently, as the experiment campaigns do.
func TestConcurrentStress(t *testing.T) {
	n := New(Config{Seed: 5})
	defer n.Close()

	const servers = 32
	const clients = 16
	const perClient = 50

	var received atomic.Int64
	for i := 0; i < servers; i++ {
		pc, err := n.ListenUDP(netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}), 443))
		if err != nil {
			t.Fatal(err)
		}
		go func(pc *PacketConn) {
			buf := make([]byte, 2048)
			for {
				nn, from, err := pc.ReadFrom(buf)
				if err != nil {
					return
				}
				received.Add(1)
				pc.WriteTo(buf[:nn], from) // echo
			}
		}(pc)
	}

	var wg sync.WaitGroup
	var echoed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pc, err := n.DialUDP()
			if err != nil {
				t.Error(err)
				return
			}
			defer pc.Close()
			go func() {
				buf := make([]byte, 2048)
				for {
					if _, _, err := pc.ReadFrom(buf); err != nil {
						return
					}
					echoed.Add(1)
				}
			}()
			for i := 0; i < perClient; i++ {
				dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(i%servers + 1)}), 443)
				if _, err := pc.WriteTo([]byte("stress"), net.UDPAddrFromAddrPort(dst)); err != nil {
					t.Error(err)
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}(c)
	}
	wg.Wait()
	want := int64(clients * perClient)
	if received.Load() != want {
		t.Errorf("servers received %d of %d", received.Load(), want)
	}
	if echoed.Load() != want {
		t.Errorf("clients got %d of %d echoes", echoed.Load(), want)
	}
}

// TestRebind: after Rebind the socket sends from (and receives at) its
// new address, the old address is free for reuse, and the queue
// survives the move.
func TestRebind(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	srv, err := n.ListenUDP(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	oldAddr := cli.LocalAddr().String()

	// Park a datagram in the queue before the move: it must survive.
	if _, err := srv.WriteTo([]byte("pre"), cli.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)

	newAP, err := cli.Rebind()
	if err != nil {
		t.Fatal(err)
	}
	if got := cli.LocalAddr().String(); got != newAP.String() {
		t.Errorf("LocalAddr = %v, want %v", got, newAP)
	}
	if newAP.String() == oldAddr {
		t.Fatal("Rebind did not change the address")
	}

	buf := make([]byte, 64)
	cli.SetReadDeadline(time.Now().Add(time.Second))
	if nn, _, err := cli.ReadFrom(buf); err != nil || string(buf[:nn]) != "pre" {
		t.Fatalf("queued datagram lost across rebind: %q %v", buf[:nn], err)
	}

	// Sends now carry the new source address.
	if _, err := cli.WriteTo([]byte("ping"), srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	srv.SetReadDeadline(time.Now().Add(time.Second))
	_, from, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if from.String() != newAP.String() {
		t.Errorf("source after rebind = %v, want %v", from, newAP)
	}

	// The new address receives; the old one is unbound and reusable.
	if _, err := srv.WriteTo([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(time.Now().Add(time.Second))
	if nn, _, err := cli.ReadFrom(buf); err != nil || string(buf[:nn]) != "pong" {
		t.Fatalf("reply to new address: %q %v", buf[:nn], err)
	}
	if _, err := n.ListenUDP(netip.MustParseAddrPort(oldAddr)); err != nil {
		t.Errorf("old address not released: %v", err)
	}
}

// TestRebindClosed: rebinding a closed socket fails cleanly.
func TestRebindClosed(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if _, err := cli.Rebind(); err == nil {
		t.Fatal("Rebind succeeded on a closed socket")
	}
}

// TestSendRacesRebindAndClose: senders read the socket's address and
// closed state without its lock. Writers looping WriteTo and WriteBatch
// while another goroutine rebinds the socket and then closes it send
// every datagram from the old address or the new, and every write that
// begins after Close has returned fails with net.ErrClosed.
func TestSendRacesRebindAndClose(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	srv, err := n.ListenUDP(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	// The handler runs on the sender's goroutine, under the socket's
	// serving lock: every datagram has arrived when its write returns.
	sources := make(map[netip.AddrPort]int)
	if err := srv.Serve(func(_ []byte, from netip.AddrPort) { sources[from]++ }, nil); err != nil {
		t.Fatal(err)
	}
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	old := cli.LocalAddr().(*net.UDPAddr).AddrPort()

	var sent atomic.Int64
	var closed atomic.Bool // set once cli.Close has returned
	to := srv.LocalAddr()
	// Each write returns how many datagrams it sent.
	writes := []func() (int, error){
		func() (int, error) {
			_, err := cli.WriteTo([]byte("to"), to)
			return 1, err
		},
		func() (int, error) {
			ms := make([]netbatch.Message, 4)
			for i := range ms {
				ms[i] = netbatch.Message{Buf: []byte("batch"), N: 5, Addr: ap("192.0.2.1:443")}
			}
			return cli.WriteBatch(ms)
		},
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			write := writes[w%2]
			for {
				after := closed.Load()
				nw, err := write()
				if err == nil && !after {
					sent.Add(int64(nw))
					continue
				}
				if !errors.Is(err, net.ErrClosed) {
					t.Errorf("write after Close: %d, %v; want net.ErrClosed", nw, err)
				}
				// Once closed, closed for good.
				for range 10 {
					if _, err := write(); !errors.Is(err, net.ErrClosed) {
						t.Errorf("write after a failed one: %v, want net.ErrClosed", err)
					}
				}
				return
			}
		}()
	}
	waitFor := func(total int64) {
		for sent.Load() < total {
			runtime.Gosched()
		}
	}
	waitFor(1000)
	fresh, err := cli.Rebind()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(sent.Load() + 1000)
	cli.Close()
	closed.Store(true)
	wg.Wait()

	received := 0
	for from, count := range sources {
		if from != old && from != fresh {
			t.Errorf("%d datagrams from %v, neither the old address %v nor the new %v", count, from, old, fresh)
		}
		received += count
	}
	if sources[old] == 0 || sources[fresh] == 0 {
		t.Errorf("datagrams by source %v: want some from the old address %v and some from the new %v", sources, old, fresh)
	}
	if int64(received) != sent.Load() {
		t.Errorf("received %d datagrams of the %d sent", received, sent.Load())
	}
}

// TestSocketChurnRacesDelivery: a bind or unbind locks every cell of
// Network.mu while deliver, and a stream dial taking its client
// address, read-lock one. Four goroutines dial and close sockets,
// keeping every fifth, while two senders aim datagrams at the newest of
// them and two more goroutines dial streams; the socket count is exact
// at the end, and no two dials got one address.
func TestSocketChurnRacesDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	const churners, rounds, keepEvery, senders, streamers = 4, 400, 5, 2, 2
	ln, err := n.ListenStream(ap("192.0.2.80:443"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	var newest atomic.Pointer[net.UDPAddr]
	newest.Store(net.UDPAddrFromAddrPort(ap("192.0.2.1:443")))
	var stop atomic.Bool
	var sendWG sync.WaitGroup
	for range senders {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			for !stop.Load() {
				if _, err := pc.WriteTo([]byte("churn"), newest.Load()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	kept := make([][]*PacketConn, churners)
	dialed := make([][]netip.AddrPort, churners+streamers)
	var wg sync.WaitGroup
	for s := range streamers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				c, err := n.DialStream(ap("192.0.2.80:443"))
				if err != nil {
					t.Error(err)
					return
				}
				dialed[churners+s] = append(dialed[churners+s], c.LocalAddr().(*net.TCPAddr).AddrPort())
				c.Close()
			}
		}()
	}
	for c := range churners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				pc, err := n.DialUDP()
				if err != nil {
					t.Error(err)
					return
				}
				at := pc.LocalAddr().(*net.UDPAddr)
				newest.Store(at)
				dialed[c] = append(dialed[c], at.AddrPort())
				if i%keepEvery == 0 {
					kept[c] = append(kept[c], pc)
				} else {
					pc.Close()
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	sendWG.Wait()

	if got, want := n.UDPSocketCount(), churners*rounds/keepEvery+senders; got != want {
		t.Errorf("UDPSocketCount() = %d after the churn, want %d", got, want)
	}
	seen := make(map[netip.AddrPort]bool)
	for _, addrs := range dialed {
		for _, a := range addrs {
			if seen[a] {
				t.Errorf("two dials got %v", a)
			}
			seen[a] = true
		}
	}
	for _, pcs := range kept {
		for _, pc := range pcs {
			pc.Close()
		}
	}
	if got := n.UDPSocketCount(); got != senders {
		t.Errorf("UDPSocketCount() = %d with only the senders open, want %d", got, senders)
	}
}
