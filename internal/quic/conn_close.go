package quic

import (
	"crypto/tls"
	"errors"

	"quicscan/internal/quicwire"
)

// isClosed reports whether the connection has closed.
func (c *Conn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// CloseWithError sends CONNECTION_CLOSE with an application error code
// and tears the connection down.
func (c *Conn) CloseWithError(code uint64, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{IsApp: true, ErrorCode: code, ReasonPhrase: reason})
	c.closeLocked(&quicwire.TransportErrorError{Code: quicwire.ApplicationError, Reason: reason})
	return nil
}

// Close closes the connection immediately with NO_ERROR.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{ErrorCode: uint64(quicwire.NoError)})
	c.closeLocked(ErrConnectionClosed)
	return nil
}

// abort closes without sending CONNECTION_CLOSE (e.g. on timeout).
func (c *Conn) abort(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hsErr == nil && !c.handshakeDone {
		c.hsErr = err
	}
	c.closeLocked(err)
}

func (c *Conn) closeWithTransportErrorLocked(code quicwire.TransportError, reason string) {
	c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{ErrorCode: uint64(code), ReasonPhrase: reason})
	err := &quicwire.TransportErrorError{Code: code, Reason: reason}
	if !c.handshakeDone && c.hsErr == nil {
		c.hsErr = err
	}
	c.closeLocked(err)
}

// closeWithTLSErrorLocked maps a crypto/tls handshake error onto a
// CONNECTION_CLOSE crypto error frame (RFC 9001, Section 4.8). A
// RequireSNI refusal goes out as the generic crypto error 0x128 with
// the policy's reason phrase.
func (c *Conn) closeWithTLSErrorLocked(err error) {
	code := quicwire.CryptoError(80) // internal_error
	reason := ""
	var alert tls.AlertError
	switch {
	case errors.Is(err, errSNIRequired):
		code, reason = quicwire.CryptoError0x128, c.policy().CloseReason
		if reason == "" {
			reason = "handshake failure"
		}
	case errors.As(err, &alert):
		code = quicwire.CryptoError(uint8(alert))
	}
	c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{ErrorCode: uint64(code), ReasonPhrase: reason})
	terr := &quicwire.TransportErrorError{Code: code, Reason: err.Error()}
	if !c.handshakeDone && c.hsErr == nil {
		c.hsErr = terr
	}
	c.closeLocked(terr)
}

// sendConnectionCloseLocked emits a CONNECTION_CLOSE in the most
// mature space with send keys. An application close that has to leave
// in an Initial or Handshake packet goes as the transport variant with
// APPLICATION_ERROR and no reason (RFC 9000, Section 10.2.3): the 0x1d
// frame is not permitted there, and a peer that enforces Table 3 — ours
// does — would answer it with PROTOCOL_VIOLATION.
func (c *Conn) sendConnectionCloseLocked(frame *quicwire.ConnectionCloseFrame) {
	for idx := spaceApp; idx >= spaceInitial; idx-- {
		sp := &c.spaces[idx]
		if sp.sendKeys != nil && !sp.dropped {
			if frame.IsApp && idx != spaceApp {
				frame = &quicwire.ConnectionCloseFrame{ErrorCode: uint64(quicwire.ApplicationError)}
			}
			sp.outFrames = append(sp.outFrames, frame)
			c.sendPendingLocked()
			return
		}
	}
}

// closeLocked closes the connection with err, once: every caller holds
// c.mu, so the closed channel alone says whether it already happened.
func (c *Conn) closeLocked(err error) {
	if c.isClosed() {
		return
	}
	c.closeErr = err
	if c.trace != nil {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		c.trace.Event("connection_closed", "error", errStr)
		c.trace.Close()
	}
	if c.timer != nil {
		c.timer.Stop()
	}
	close(c.closed)
	for _, s := range c.streamSet.byID {
		s.connClosed(err)
	}
	if c.tls != nil {
		c.tls.Close()
	}
	c.ep.retire(c)
}

// Closed returns a channel closed when the connection dies.
func (c *Conn) Closed() <-chan struct{} { return c.closed }

// Err returns the reason the connection closed, or nil while it is
// still alive. After Closed() is done this is stable; a peer-sent
// CONNECTION_CLOSE surfaces as *quicwire.TransportErrorError with
// Remote set.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeErr
}
