package quic

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"quicscan/internal/quicwire"
)

// streamSet is a connection's stream bookkeeping: its streams by ID,
// how many of each direction it has opened, and the peer-opened streams
// waiting for AcceptStream. Conn embeds it by value. It holds no
// pointer back; the methods that make a Stream are handed its Conn.
type streamSet struct {
	// Set once before publication: the initiator bit of the stream IDs
	// this side opens (RFC 9000, Section 2.1), 0 on a client.
	local uint64

	// Guarded by c.mu. opened counts the streams this side opened,
	// bidirectional first.
	byID   map[uint64]*Stream
	accept chan *Stream
	opened [2]uint64
}

// init makes the map and the accept queue on first use: a connection
// that never carries a stream (a scan that ends at the handshake) pays
// for neither. The queue holds 16 peer-opened streams; one that finds
// it full is still served, but never accepted.
func (ss *streamSet) init() {
	if ss.byID == nil {
		ss.byID = make(map[uint64]*Stream)
		ss.accept = make(chan *Stream, 16)
	}
}

// open makes the next stream this side initiates, unidirectional if
// uni.
func (ss *streamSet) open(c *Conn, uni bool) *Stream {
	dir := uint64(0)
	if uni {
		dir = 1
	}
	s := newStream(ss.opened[dir]<<2|dir<<1|ss.local, c)
	ss.opened[dir]++
	ss.init()
	ss.byID[s.id] = s
	return s
}

// peer returns the stream a frame from the peer names. The peer's first
// frame for a stream it initiates creates the stream and queues it for
// AcceptStream; a frame for a stream this side would have initiated but
// has not is a STREAM_STATE_ERROR (RFC 9000, Section 19.8).
func (ss *streamSet) peer(c *Conn, id uint64) (*Stream, *quicwire.TransportErrorError) {
	if s, ok := ss.byID[id]; ok {
		return s, nil
	}
	if id&1 == ss.local {
		return nil, &quicwire.TransportErrorError{Code: quicwire.StreamStateError,
			Reason: fmt.Sprintf("stream %d not opened", id)}
	}
	s := newStream(id, c)
	ss.init()
	ss.byID[id] = s
	select {
	case ss.accept <- s:
	default:
	}
	return s, nil
}

// Stream is a QUIC stream. Reads block until data arrives; writes are
// queued on the connection's send path. A Stream has no lock of its
// own: it lives under its Conn's, and closing the Conn invalidates all
// its streams.
type Stream struct {
	// Set once before publication. cond waits on conn.mu.
	id   uint64
	conn *Conn
	cond sync.Cond

	// Guarded by c.mu.
	recvBuf    []byte
	recvFin    bool
	finOff     uint64 // final size once recvFin is set
	recvOff    uint64
	segments   map[uint64][]byte // out-of-order stream data; made on first use
	resetErr   error
	sendClosed bool   // FIN queued
	sendOff    uint64 // next write offset
}

func newStream(id uint64, conn *Conn) *Stream {
	s := &Stream{id: id, conn: conn}
	s.cond.L = &conn.mu
	return s
}

// ID returns the stream ID.
func (s *Stream) ID() uint64 { return s.id }

// handleData delivers an incoming STREAM frame.
func (s *Stream) handleData(offset uint64, data []byte, fin bool) {
	if fin {
		// The final size is where the frame ends as sent, even when the
		// frame lies wholly below the bytes already delivered.
		s.recvFin = true
		s.finOff = offset + uint64(len(data))
	}
	if len(data) > 0 {
		if offset < s.recvOff {
			// Trim the already-delivered prefix of a retransmission.
			if offset+uint64(len(data)) <= s.recvOff {
				data = nil
			} else {
				data = data[s.recvOff-offset:]
				offset = s.recvOff
			}
		}
		if len(data) > 0 && offset == s.recvOff && len(s.segments) == 0 {
			// In order with nothing held back — the lossless case —
			// goes straight to the read buffer.
			s.recvBuf = append(s.recvBuf, data...)
			s.recvOff += uint64(len(data))
		} else if len(data) > 0 {
			// Retransmissions may be split at different boundaries than
			// the original frames; keep the longest data seen per offset.
			if old, ok := s.segments[offset]; !ok || len(data) > len(old) {
				if s.segments == nil {
					s.segments = make(map[uint64][]byte)
				}
				s.segments[offset] = append([]byte(nil), data...)
			}
		}
	}
	// Drain contiguous segments into recvBuf. Besides exact matches at
	// the delivery offset, segments starting earlier that extend past
	// it (differently-split retransmissions) also contribute.
	for {
		seg, ok := s.segments[s.recvOff]
		if ok {
			delete(s.segments, s.recvOff)
			s.recvBuf = append(s.recvBuf, seg...)
			s.recvOff += uint64(len(seg))
			continue
		}
		advanced := false
		for off, seg := range s.segments {
			end := off + uint64(len(seg))
			if off <= s.recvOff && end > s.recvOff {
				s.recvBuf = append(s.recvBuf, seg[s.recvOff-off:]...)
				s.recvOff = end
				delete(s.segments, off)
				advanced = true
				break
			}
			if end <= s.recvOff {
				delete(s.segments, off) // fully stale
			}
		}
		if !advanced {
			break
		}
	}
	s.cond.Broadcast()
}

// handleReset delivers a RESET_STREAM.
func (s *Stream) handleReset(code uint64) {
	s.resetErr = &quicwire.TransportErrorError{Code: quicwire.TransportError(code), Reason: "stream reset", Remote: true}
	s.cond.Broadcast()
}

// connClosed wakes blocked readers when the connection dies.
func (s *Stream) connClosed(err error) {
	if s.resetErr == nil {
		s.resetErr = err
	}
	s.cond.Broadcast()
}

// complete reports whether every byte up to the peer's FIN has been
// delivered; a FIN-only frame arriving ahead of retransmitted data must
// not truncate the stream.
func (s *Stream) complete() bool { return s.recvFin && s.recvOff >= s.finOff }

// Read implements io.Reader. It returns io.EOF after the peer's FIN
// once all data has been consumed.
func (s *Stream) Read(p []byte) (int, error) {
	s.conn.mu.Lock()
	defer s.conn.mu.Unlock()
	for len(s.recvBuf) == 0 {
		if s.complete() {
			return 0, io.EOF
		}
		if s.resetErr != nil {
			return 0, s.resetErr
		}
		s.cond.Wait()
	}
	n := copy(p, s.recvBuf)
	s.recvBuf = s.recvBuf[n:]
	return n, nil
}

// ReadAll waits until every byte up to the peer's FIN has arrived and
// returns the bytes not yet read, or until the stream is reset, the
// connection closes or ctx ends, and returns why. It starts no
// goroutine: ctx's end wakes the wait through the stream's cond.
func (s *Stream) ReadAll(ctx context.Context) ([]byte, error) {
	c := s.conn
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		s.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !s.complete() {
		if s.resetErr != nil {
			return nil, s.resetErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.cond.Wait()
	}
	b := s.recvBuf
	s.recvBuf = nil
	return b, nil
}

var errStreamClosed = errors.New("quic: write on closed stream")

// Write queues data for transmission.
func (s *Stream) Write(p []byte) (int, error) {
	if err := s.queue(p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close sends a FIN, half-closing the send direction.
func (s *Stream) Close() error { return s.queue(nil, true) }

// queue appends data, with a FIN if fin, to the connection's send
// queue. The check that the stream is still open and the queueing are
// one critical section, so no byte can follow the FIN.
func (s *Stream) queue(data []byte, fin bool) error {
	c := s.conn
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.sendClosed {
		if fin {
			return nil
		}
		return errStreamClosed
	}
	s.sendClosed = fin
	if c.isClosed() {
		return c.closeErr
	}
	sp := &c.spaces[spaceApp]
	// The frame owns a copy of data until it is acknowledged.
	sp.outFrames = append(sp.outFrames, &quicwire.StreamFrame{
		StreamID: s.id, Offset: s.sendOff, Data: append([]byte(nil), data...), Fin: fin,
	})
	s.sendOff += uint64(len(data))
	c.sendPendingLocked()
	return nil
}
