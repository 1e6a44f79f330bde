package quic

import (
	"bytes"
	"context"
	"crypto/tls"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	"quicscan/internal/quicwire"
)

// TestPoolAliasingSafety enforces the ownership contract documented in
// bufpool.go: once a receive node is back on its free list, nothing in
// the connection may still reference it. The canary is retained CRYPTO
// frame data — the longest-lived thing parsed out of a datagram — and
// the enforcement is a hostile goroutine that takes idle nodes and
// scribbles over them while handshakes are in flight (meaningful under
// -race, which make check runs).
func TestPoolAliasingSafety(t *testing.T) {
	t.Run("crypto_canary", testCryptoCanary)
	t.Run("scribbler_handshakes", testScribblerHandshakes)
}

// testCryptoCanary pushes CRYPTO data that lives inside a receive node
// into a cryptoAssembler, releases the node, scribbles over it, and
// asserts the assembler's bytes are unharmed — proving push copied the
// frame data out of the datagram. The datagram sits in the node a pump
// read it into, which is pooled, or in a pushing socket's copy.
func testCryptoCanary(t *testing.T) {
	t.Run("hand_off_node", func(t *testing.T) {
		q := newRxQueue(rxBlockBuf)
		cryptoCanary(t, func() ([]byte, func()) {
			var batch [1]*rxNode
			q.lease(batch[:])
			n := batch[0]
			n.n = len(n.buf)
			return n.data(), func() { q.releaseBatch(batch[:]) }
		})
	})
}

// cryptoCanary runs the canary over buffers from lease, which returns a
// buffer and its release.
func cryptoCanary(t *testing.T, lease func() ([]byte, func())) {
	const (
		prefixLen = 64
		tailLen   = 192
	)
	want := make([]byte, prefixLen+tailLen)
	for i := range want {
		want[i] = byte(i * 7)
	}

	var a cryptoAssembler

	// The out-of-order tail is retained in a.segments until the prefix
	// arrives: the retained-data canary.
	tb, release := lease()
	buf := tb[:tailLen]
	copy(buf, want[prefixLen:])
	if _, err := a.push(prefixLen, buf); err != nil {
		t.Fatal(err)
	}
	release()
	scribble(buf)

	// The prefix arrives via a pooled read buffer, is delivered
	// immediately, and the buffer is recycled before the delivered
	// bytes are inspected.
	bb, release := lease()
	rb := bb[:prefixLen]
	copy(rb, want[:prefixLen])
	got, err := a.push(0, rb)
	if err != nil {
		t.Fatal(err)
	}
	release()
	scribble(rb)

	if !bytes.Equal(got, want) {
		t.Fatalf("crypto bytes corrupted after buffer release:\n got %x\nwant %x", got, want)
	}
}

func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// testScribblerHandshakes runs concurrent handshakes through a shared
// transport while hostile goroutines continuously take, scribble, and
// release the transport's idle receive nodes. If any pump, executor,
// frame parser, or packer still referenced a released node, the
// handshakes would corrupt (or -race would flag the write/write
// conflict).
func testScribblerHandshakes(t *testing.T) {
	const (
		poolSize = 2
		dials    = 24
	)
	n, l, pool := lossyWorld(t, 0, 42)

	socks := make([]net.PacketConn, 0, poolSize)
	for i := 0; i < poolSize; i++ {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		socks = append(socks, pc)
	}
	tr, err := NewTransport(socks...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	done := make(chan struct{})
	var scribblers sync.WaitGroup
	for w := 0; w < 2; w++ {
		scribblers.Add(1)
		go func() {
			defer scribblers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				tr.rx.mu.Lock()
				n := tr.rx.takeFreeLocked()
				tr.rx.mu.Unlock()
				if n != nil {
					scribble(n.buf)
					tr.rx.releaseBatch([]*rxNode{n})
				}
			}
		}()
	}

	cfg := &Config{
		TLS:              &tls.Config{RootCAs: pool, ServerName: "lossy.test", NextProtos: []string{"h3"}},
		HandshakeTimeout: 20 * time.Second,
	}
	errs := make([]error, dials)
	var wg sync.WaitGroup
	for i := 0; i < dials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := tr.Dial(context.Background(), l.Addr(), cfg)
			errs[i] = err
			if err == nil {
				conn.Close()
			}
		}(i)
	}
	wg.Wait()
	close(done)
	scribblers.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("dial %d under pool churn: %v", i, err)
		}
	}
}

// poisonFrame destroys a received frame the moment its handler
// returns: the payload bytes it points into are scribbled over and the
// frame value, which lives in the connection's FrameIter, is replaced
// by garbage — what the iterator's next step and the read loop's next
// datagram would do to them anyway, only at once and always.
func poisonFrame(f quicwire.Frame) {
	const junk = 0xA5A5A5A5A5A5A5
	switch fr := f.(type) {
	case *quicwire.AckFrame:
		for i := range fr.Ranges {
			fr.Ranges[i] = quicwire.AckRange{Smallest: junk, Largest: junk}
		}
		fr.DelayRaw = junk
	case *quicwire.CryptoFrame:
		scribble(fr.Data)
		*fr = quicwire.CryptoFrame{Offset: junk}
	case *quicwire.StreamFrame:
		scribble(fr.Data)
		*fr = quicwire.StreamFrame{StreamID: junk, Offset: junk}
	case *quicwire.NewTokenFrame:
		scribble(fr.Token)
		*fr = quicwire.NewTokenFrame{}
	case *quicwire.NewConnectionIDFrame:
		scribble(fr.ConnectionID)
		scribble(fr.StatelessResetToken[:])
		*fr = quicwire.NewConnectionIDFrame{SequenceNumber: junk, RetirePriorTo: junk}
	case *quicwire.RetireConnectionIDFrame:
		fr.SequenceNumber = junk
	case *quicwire.ResetStreamFrame:
		*fr = quicwire.ResetStreamFrame{StreamID: junk, ErrorCode: junk, FinalSize: junk}
	case *quicwire.PathChallengeFrame:
		scribble(fr.Data[:])
	case *quicwire.PathResponseFrame:
		scribble(fr.Data[:])
	case *quicwire.ConnectionCloseFrame:
		*fr = quicwire.ConnectionCloseFrame{ErrorCode: junk, ReasonPhrase: "poisoned"}
	}
}

// TestFrameStorageNotRetained runs the handshake, transfer, resumption,
// NEW_TOKEN, Retry and path tests with every received frame poisoned as
// soon as it has been handled — on clients and servers alike, since
// both are this package. They pass only if Conn copied everything it
// keeps (CRYPTO data, stream segments, connection IDs, reset tokens,
// address validation tokens, ACK ranges) out of the frame and the
// payload before handleFrameLocked returned: the lifetime rule of
// quicwire.FrameIter and of handleDatagram's buffer. On a pumped
// endpoint (every Transport here, and a Listener on a kernel socket)
// that buffer is the hand-off node, which goes back to the free list
// for another datagram once the executor is done with this one; the
// poisoning does to it at once what that next datagram would.
func TestFrameStorageNotRetained(t *testing.T) {
	testHookFrameHandled = poisonFrame
	defer func() { testHookFrameHandled = nil }()
	for _, test := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"HandshakeAndStreamEcho", TestHandshakeAndStreamEcho},
		{"LargeStreamTransfer", TestLargeStreamTransfer},
		{"HandshakeUnderLoss", TestHandshakeUnderLoss},
		{"SessionResumptionAnd0RTT", TestSessionResumptionAnd0RTT},
		{"ZeroRTTRejectedReplay", TestZeroRTTRejectedReplay},
		{"RetryHandshake", TestRetryHandshake},
		{"NewTokenSkipsRetry", TestNewTokenSkipsRetry},
		{"NewConnectionIDsIssued", TestNewConnectionIDsIssued},
		{"StatelessResetEndToEnd", TestStatelessResetEndToEnd},
		{"PathValidationPromotesReboundClient", TestPathValidationPromotesReboundClient},
		{"MigrateRotatesActivePath", TestMigrateRotatesActivePath},
		{"CIDChurn", TestCIDChurn},
		{"CloseWithErrorPropagates", TestCloseWithErrorPropagates},
	} {
		t.Run(test.name, test.run)
	}
}

// TestConnFitsSizeClass: a Conn embeds its scratch (frame list, frame
// decoder, per-space loss and ACK state) so that the packet path
// allocates nothing, and the runtime rounds the one allocation that
// holds it all up to a size class; a scan pays for two connections per
// target. 3,456 bytes is a class, and at 3,248 bytes Conn leaves 208 of
// it free. The next is 4,096: the class items that add per-connection
// state (a flight recorder, drop counts by reason) may deliberately move
// Conn into, if what they add is worth 640 bytes twice per target.
func TestConnFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Conn{}); size > 3456 {
		t.Errorf("Conn is %d bytes: past the 3,456-byte size class, into the 4,096-byte one", size)
	} else {
		t.Logf("Conn is %d bytes", size)
	}
}

// TestHandOffNodeFillsItsSizeClass: a Transport's receive node is
// allocated as one block, and its buffer takes what the 2,048-byte size
// class leaves beside the node's other fields.
func TestHandOffNodeFillsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(rxBlock{}); size != rxNodeSize {
		t.Errorf("rxBlock is %d bytes, want %d", size, rxNodeSize)
	}
}
