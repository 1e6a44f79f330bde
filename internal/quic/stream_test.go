package quic

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"quicscan/internal/quicwire"
)

// TestStreamSetOpen: each side numbers the streams it opens by its role,
// and each direction on its own (RFC 9000, Section 2.1).
func TestStreamSetOpen(t *testing.T) {
	for _, tc := range []struct {
		isClient bool
		uni      []bool // the directions opened, in order
		want     []uint64
	}{
		{true, []bool{false, true, false, true, true}, []uint64{0, 2, 4, 6, 10}},
		{false, []bool{true, false, true, false}, []uint64{3, 1, 7, 5}},
	} {
		c := newRig(t, tc.isClient).c
		c.mu.Lock()
		for i, uni := range tc.uni {
			if s := c.streamSet.open(c, uni); s.ID() != tc.want[i] || c.streamSet.byID[s.ID()] != s {
				t.Errorf("client=%t: stream %d opened as %d, want %d", tc.isClient, i, s.ID(), tc.want[i])
			}
		}
		c.mu.Unlock()
	}
}

// TestStreamSetPeer: the peer's first frame for a stream it may open
// creates the stream and queues it for AcceptStream, once; a frame for
// a stream this side would have opened but has not is a
// STREAM_STATE_ERROR, which closes the connection.
func TestStreamSetPeer(t *testing.T) {
	for _, tc := range []struct {
		isClient bool
		opened   int // bidirectional streams this side opens first
		id       uint64
		queued   int // streams waiting for AcceptStream afterwards
		err      bool
	}{
		{isClient: true, id: 1, queued: 1},
		{isClient: true, id: 3, queued: 1},
		{isClient: false, id: 0, queued: 1},
		{isClient: false, id: 6, queued: 1},
		{isClient: true, opened: 1, id: 0}, // this side's own stream
		{isClient: true, id: 0, err: true},
		{isClient: true, id: 2, err: true},
		{isClient: true, opened: 1, id: 4, err: true},
		{isClient: false, id: 5, err: true},
	} {
		c := newRig(t, tc.isClient).c
		c.mu.Lock()
		for range tc.opened {
			c.streamSet.open(c, false)
		}
		s, err := c.streamSet.peer(c, tc.id)
		again, _ := c.streamSet.peer(c, tc.id)
		queued := len(c.streamSet.accept)
		c.mu.Unlock()
		if tc.err {
			if err == nil || err.Code != quicwire.StreamStateError {
				t.Errorf("client=%t stream %d: err %v, want STREAM_STATE_ERROR", tc.isClient, tc.id, err)
			}
			continue
		}
		if err != nil || s == nil || again != s || queued != tc.queued {
			t.Errorf("client=%t stream %d: err %v, one stream for two frames %t, %d queued; want %d queued",
				tc.isClient, tc.id, err, s != nil && again == s, queued, tc.queued)
		}
	}

	r := newRig(t, true)
	r.deliver(quicwire.Packet1RTT, (&quicwire.StreamFrame{StreamID: 0, Data: []byte("x")}).Append(nil))
	var te *quicwire.TransportErrorError
	if !errors.As(r.c.Err(), &te) || te.Code != quicwire.StreamStateError {
		t.Errorf("STREAM frame for an unopened own stream: connection error %v, want STREAM_STATE_ERROR", r.c.Err())
	}
}

// TestStreamReceive: STREAM frames in any order, split and resent at any
// boundaries, reassemble into the bytes sent; the stream ends only once
// every byte up to the FIN has arrived; and the final size is where the
// FIN's frame ends as sent, also when it is resent wholly below the
// bytes already delivered.
func TestStreamReceive(t *testing.T) {
	type frame struct {
		off  uint64
		data string
		fin  bool
	}
	hundred := strings.Repeat("x", 100)
	for _, tc := range []struct {
		name   string
		frames []frame
		want   string // the bytes delivered, in order
		finOff uint64
		ended  bool // every byte up to the FIN has arrived
	}{
		{"in order", []frame{{0, "hello ", false}, {6, "world", true}}, "hello world", 11, true},
		{"out of order", []frame{{6, "world", true}, {0, "hello ", false}}, "hello world", 11, true},
		{"resent, split differently", []frame{{0, "hel", false}, {0, "hello wo", false}, {5, " world", true}}, "hello world", 11, true},
		{"held back, resent split differently", []frame{{6, "world", true}, {3, "lo w", false}, {0, "hel", false}}, "hello world", 11, true},
		{"FIN alone, ahead of the data", []frame{{5, "", true}, {0, "hel", false}}, "hel", 5, false},
		{"FIN alone, then all the data", []frame{{5, "", true}, {0, "hello", false}}, "hello", 5, true},
		{"FIN resent below the delivered bytes", []frame{{0, hundred, true}, {0, hundred, true}}, hundred, 100, true},
	} {
		c := newRig(t, true).c
		c.mu.Lock()
		s, _ := c.streamSet.peer(c, 1)
		for _, f := range tc.frames {
			s.handleData(f.off, []byte(f.data), f.fin)
		}
		got, finOff, ended := string(s.recvBuf), s.finOff, s.complete()
		c.mu.Unlock()
		if got != tc.want || finOff != tc.finOff || ended != tc.ended {
			t.Errorf("%s: delivered %q, final size %d, ended %t; want %q, %d, %t",
				tc.name, got, finOff, ended, tc.want, tc.finOff, tc.ended)
		}
		if tc.ended {
			if b, err := io.ReadAll(s); err != nil || string(b) != tc.want {
				t.Errorf("%s: read %q, %v to the end", tc.name, b, err)
			}
		}
	}
}

// TestStreamWakesReaders: a Read or ReadAll blocked on a stream returns
// as soon as the stream is reset or the connection closes, with that as
// its error.
func TestStreamWakesReaders(t *testing.T) {
	reads := map[string]func(*Stream) error{
		"Read":    func(s *Stream) error { _, err := s.Read(make([]byte, 1)); return err },
		"ReadAll": func(s *Stream) error { _, err := s.ReadAll(context.Background()); return err },
	}
	for _, tc := range []struct {
		name string
		wake func(*Conn, *Stream)
		want func(error) bool
	}{
		{"reset", func(c *Conn, s *Stream) {
			c.mu.Lock()
			s.handleReset(7)
			c.mu.Unlock()
		}, func(err error) bool {
			var te *quicwire.TransportErrorError
			return errors.As(err, &te) && te.Code == 7 && te.Remote
		}},
		{"connection close", func(c *Conn, _ *Stream) { c.Close() },
			func(err error) bool { return errors.Is(err, errConnectionClosed) }},
	} {
		for name, read := range reads {
			c := newRig(t, true).c
			c.mu.Lock()
			s, _ := c.streamSet.peer(c, 1)
			c.mu.Unlock()
			done := make(chan error, 1)
			go func() { done <- read(s) }()
			waitParked(t, "quic.(*Stream)."+name+"(")
			tc.wake(c, s)
			select {
			case err := <-done:
				if !tc.want(err) {
					t.Errorf("%s woken by %s: %v", name, tc.name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s still blocked after %s", name, tc.name)
			}
		}
	}
}

// waitParked returns once a goroutine waits on a stream's cond inside
// method, so that a test wakes a reader that is really blocked.
func waitParked(t *testing.T, method string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitFor(t, "a reader blocked in "+method, func() bool {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, method) {
				return true
			}
		}
		return false
	})
}

// TestReadAllCancelled: a ReadAll whose ctx ends mid-read returns ctx's
// error and leaves no goroutine behind while the connection stays open.
func TestReadAllCancelled(t *testing.T) {
	w := newSimWorld(t, ServerPolicy{}, nil)
	w.serverConn(t)
	s, err := w.client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("nobody answers")); err != nil {
		t.Fatal(err)
	}
	goroutines0 := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.ReadAll(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReadAll = %v, want %v", err, context.DeadlineExceeded)
	}
	waitFor(t, "goroutines to return to baseline", func() bool { return runtime.NumGoroutine() <= goroutines0 })
	if err := w.client.Err(); err != nil {
		t.Fatalf("the connection closed: %v", err)
	}
}

// TestWriteCloseRace: a Write racing a Close on the same stream goes out
// before the FIN or fails, so the peer never receives a byte past the
// stream's final size.
func TestWriteCloseRace(t *testing.T) {
	w := newSimWorld(t, ServerPolicy{}, nil)
	sc := w.serverConn(t)
	const rounds = 1000
	for range rounds {
		s, err := w.client.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.Write([]byte("data")) }()
		go func() { defer wg.Done(); s.Close() }()
		wg.Wait()
	}
	fins := func() (n int) {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		for _, s := range sc.streamSet.byID {
			if s.recvFin {
				n++
			}
		}
		return n
	}
	waitFor(t, "every FIN at the server", func() bool { return fins() == rounds })
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for id, s := range sc.streamSet.byID {
		if s.recvOff > s.finOff {
			t.Errorf("stream %d: %d bytes past its final size %d", id, s.recvOff-s.finOff, s.finOff)
		}
	}
}
