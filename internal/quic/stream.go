package quic

import (
	"context"
	"errors"
	"io"
	"sync"

	"quicscan/internal/quicwire"
)

// StreamDir classifies stream IDs.
type StreamDir int

const (
	// StreamBidi is a bidirectional stream.
	StreamBidi StreamDir = iota
	// StreamUni is a unidirectional stream.
	StreamUni
)

// streamDirOf reports direction and initiator of a stream ID.
func streamDirOf(id uint64) (dir StreamDir, clientInitiated bool) {
	clientInitiated = id&0x1 == 0
	if id&0x2 != 0 {
		dir = StreamUni
	}
	return dir, clientInitiated
}

// Stream is a QUIC stream. Reads block until data arrives; writes are
// buffered and flushed by the connection's send path. A Stream is
// owned by its Conn; closing the Conn invalidates all streams.
type Stream struct {
	id   uint64
	conn *Conn

	mu       sync.Mutex
	cond     sync.Cond // on mu
	recvBuf  []byte
	recvFin  bool
	finOff   uint64 // final size once recvFin is set
	recvOff  uint64
	segments map[uint64][]byte // out-of-order stream data; made on first use
	resetErr error

	sendClosed bool   // FIN queued
	sendOff    uint64 // next write offset
}

// sendOffset returns the current write offset. Callers hold s.mu.
func (s *Stream) sendOffset() uint64 { return s.sendOff }

func newStream(id uint64, conn *Conn) *Stream {
	s := &Stream{id: id, conn: conn}
	s.cond.L = &s.mu
	return s
}

// ID returns the stream ID.
func (s *Stream) ID() uint64 { return s.id }

// handleData delivers an incoming STREAM frame.
func (s *Stream) handleData(offset uint64, data []byte, fin bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	if fin {
		s.recvFin = true
		s.finOff = offset + uint64(len(data))
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
	s.mu.Lock()
	s.resetErr = &quicwire.TransportErrorError{Code: quicwire.TransportError(code), Reason: "stream reset", Remote: true}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// connClosed wakes blocked readers when the connection dies.
func (s *Stream) connClosed(err error) {
	s.mu.Lock()
	if s.resetErr == nil {
		s.resetErr = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Read implements io.Reader. It returns io.EOF after the peer's FIN
// once all data has been consumed.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.recvBuf) == 0 {
		// EOF only once every byte up to the FIN's final size has been
		// delivered; a FIN-only frame arriving ahead of retransmitted
		// data must not truncate the stream.
		if s.recvFin && s.recvOff >= s.finOff {
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

// ReadAll reads until EOF or error, respecting the context deadline
// via the connection close.
func (s *Stream) ReadAll(ctx context.Context) ([]byte, error) {
	type result struct {
		b   []byte
		err error
	}
	ch := make(chan result, 1)
	go func() {
		b, err := io.ReadAll(s)
		ch <- result{b, err}
	}()
	select {
	case r := <-ch:
		return r.b, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

var errStreamClosed = errors.New("quic: write on closed stream")

// Write queues data for transmission.
func (s *Stream) Write(p []byte) (int, error) {
	s.mu.Lock()
	closed := s.sendClosed
	s.mu.Unlock()
	if closed {
		return 0, errStreamClosed
	}
	if err := s.conn.queueStreamData(s.id, p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close sends a FIN, half-closing the send direction.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.sendClosed {
		s.mu.Unlock()
		return nil
	}
	s.sendClosed = true
	s.mu.Unlock()
	return s.conn.queueStreamData(s.id, nil, true)
}
