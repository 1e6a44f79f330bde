//go:build linux && (amd64 || arm64) && !portable

package netbatch_test

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"quicscan/internal/netbatch"
	"quicscan/internal/telemetry"
)

// loopbackPair binds two real UDP sockets on the loopback interface,
// skipping the test where the sandbox forbids sockets entirely.
func loopbackPair(t *testing.T) (send, recv net.PacketConn) {
	t.Helper()
	var err error
	recv, err = net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP available: %v", err)
	}
	t.Cleanup(func() { recv.Close() })
	send, err = net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP available: %v", err)
	}
	t.Cleanup(func() { send.Close() })
	return send, recv
}

// TestSyscallBatchLoopback round-trips a batch over real sockets
// through raw sendmmsg/recvmmsg and checks the amortization is real:
// the sendmmsg syscall count must be far below one per datagram.
func TestSyscallBatchLoopback(t *testing.T) {
	send, recv := loopbackPair(t)
	bcS, kind := netbatch.Wrap(send)
	if kind != netbatch.KindSyscall {
		t.Fatalf("real UDP socket wrapped as %v, want syscall", kind)
	}
	bcR, kind := netbatch.Wrap(recv)
	if kind != netbatch.KindSyscall {
		t.Fatalf("real UDP socket wrapped as %v, want syscall", kind)
	}

	before := telemetry.Default().Snapshot().Counters["netbatch_sendmmsg_total"]

	const total, batch = 100, 50
	dst := recv.LocalAddr().(*net.UDPAddr).AddrPort()
	msgs := make([]netbatch.Message, batch)
	for sent := 0; sent < total; sent += batch {
		for i := 0; i < batch; i++ {
			payload := fmt.Appendf(nil, "loopback-%03d", sent+i)
			msgs[i] = netbatch.Message{Buf: payload, N: len(payload), Addr: dst}
		}
		nw, err := bcS.WriteBatch(msgs)
		if err != nil || nw != batch {
			t.Fatalf("WriteBatch = %d, %v", nw, err)
		}
	}

	// 100 datagrams in 2 batches: allow a couple of short-count
	// resumes, but anything near one-per-datagram means the batching
	// is not happening.
	calls := telemetry.Default().Snapshot().Counters["netbatch_sendmmsg_total"] - before
	if calls == 0 || calls > total/5 {
		t.Errorf("sendmmsg called %d times for %d datagrams, want ~%d", calls, total, total/batch)
	}

	recv.SetReadDeadline(time.Now().Add(2 * time.Second))
	seen := make(map[string]bool)
	in := make([]netbatch.Message, 32)
	for i := range in {
		in[i].Buf = make([]byte, 256)
	}
	sendFrom := send.LocalAddr().(*net.UDPAddr).AddrPort()
	for len(seen) < total {
		got, err := bcR.ReadBatch(in)
		if err != nil {
			t.Fatalf("ReadBatch after %d/%d datagrams: %v", len(seen), total, err)
		}
		for i := 0; i < got; i++ {
			if in[i].Addr != sendFrom {
				t.Fatalf("datagram source = %v, want %v", in[i].Addr, sendFrom)
			}
			seen[string(in[i].Buf[:in[i].N])] = true
		}
	}
	for i := 0; i < total; i++ {
		if !seen[fmt.Sprintf("loopback-%03d", i)] {
			t.Errorf("datagram %d never arrived", i)
		}
	}
}

// TestSyscallReadBatchDeadline checks that recvmmsg integrates with
// the runtime poller: an expired read deadline surfaces as a timeout
// net.Error exactly like ReadFrom, not as a spin or a hang.
func TestSyscallReadBatchDeadline(t *testing.T) {
	_, recv := loopbackPair(t)
	bc, _ := netbatch.Wrap(recv)
	recv.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	msgs := []netbatch.Message{{Buf: make([]byte, 64)}}
	start := time.Now()
	_, err := bc.ReadBatch(msgs)
	if err == nil {
		t.Fatal("ReadBatch returned nil past the deadline")
	}
	nerr, ok := err.(net.Error)
	if !ok || !nerr.Timeout() {
		t.Fatalf("ReadBatch returned %v, want timeout net.Error", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadline honored only after %v", elapsed)
	}
}

// TestSyscallWriteBatchBadAddress checks the well-formed prefix of a
// batch is still sent when a later destination cannot be encoded for
// the socket's family.
func TestSyscallWriteBatchBadAddress(t *testing.T) {
	send, recv := loopbackPair(t)
	bc, _ := netbatch.Wrap(send)
	dst := recv.LocalAddr().(*net.UDPAddr).AddrPort()
	msgs := []netbatch.Message{
		{Buf: []byte("ok"), N: 2, Addr: dst},
		{Buf: []byte("bad"), N: 3, Addr: netip.MustParseAddrPort("[2001:db8::1]:443")},
		{Buf: []byte("after"), N: 5, Addr: dst},
	}
	sent, err := bc.WriteBatch(msgs)
	if err == nil {
		t.Fatal("WriteBatch accepted an IPv6 destination on an IPv4 socket")
	}
	if sent != 1 {
		t.Fatalf("WriteBatch sent %d before the bad address, want 1", sent)
	}
	buf := make([]byte, 16)
	recv.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err := recv.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "ok" {
		t.Fatalf("prefix datagram: %q, %v", buf[:n], err)
	}
}

// TestSyscallBatchKeepsZone: a link-local peer is only reachable with
// its interface scope, so the source address ReadBatch reports must
// carry one that both WriteBatch and net's own WriteTo (through
// SetUDPAddr) can answer to.
func TestSyscallBatchKeepsZone(t *testing.T) {
	var local *net.UDPAddr
	ifs, _ := net.Interfaces()
	for _, ifi := range ifs {
		addrs, _ := ifi.Addrs()
		for _, a := range addrs {
			if n, ok := a.(*net.IPNet); ok && n.IP.To4() == nil && n.IP.IsLinkLocalUnicast() {
				local = &net.UDPAddr{IP: n.IP, Zone: ifi.Name}
			}
		}
	}
	if local == nil {
		t.Skip("no interface with an IPv6 link-local address")
	}
	bind := func() *net.UDPConn {
		pc, err := net.ListenUDP("udp6", local)
		if err != nil {
			t.Skipf("cannot bind %v: %v", local, err)
		}
		t.Cleanup(func() { pc.Close() })
		pc.SetDeadline(time.Now().Add(5 * time.Second))
		return pc
	}
	a, b := bind(), bind()
	bcA, _ := netbatch.Wrap(a)
	bcB, _ := netbatch.Wrap(b)

	ping := []netbatch.Message{{Buf: []byte("ping"), N: 4, Addr: b.LocalAddr().(*net.UDPAddr).AddrPort()}}
	if _, err := bcA.WriteBatch(ping); err != nil {
		t.Fatalf("WriteBatch to %v: %v", ping[0].Addr, err)
	}
	in := []netbatch.Message{{Buf: make([]byte, 16)}}
	if n, err := bcB.ReadBatch(in); n != 1 || err != nil {
		t.Fatalf("ReadBatch = %d, %v", n, err)
	}
	from := in[0].Addr
	if from.Addr().Zone() == "" {
		t.Fatalf("source %v lost its zone", from)
	}

	// Both reply paths reach the peer: the batch writer, and a net.Addr
	// rebuilt with SetUDPAddr.
	if _, err := bcB.WriteBatch([]netbatch.Message{{Buf: []byte("pong"), N: 4, Addr: from}}); err != nil {
		t.Fatalf("WriteBatch to %v: %v", from, err)
	}
	ua := &net.UDPAddr{}
	netbatch.SetUDPAddr(ua, from)
	if ua.Zone != from.Addr().Zone() {
		t.Fatalf("SetUDPAddr(%v) zone = %q", from, ua.Zone)
	}
	if _, err := b.WriteTo([]byte("pong"), ua); err != nil {
		t.Fatalf("WriteTo %v: %v", ua, err)
	}
	for i := 0; i < 2; i++ {
		if n, err := bcA.ReadBatch(in); n != 1 || err != nil || string(in[0].Buf[:in[0].N]) != "pong" {
			t.Fatalf("reply %d: ReadBatch = %d, %v", i, n, err)
		}
	}
}
