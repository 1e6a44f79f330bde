package quic

import "quicscan/internal/quicwire"

// testHookFrameHandled, when set by a test, runs after each received
// frame has been handled, with the frame the iterator handed out. The
// aliasing test uses it to destroy the frame and the payload bytes it
// points into, proving nothing retained them.
var testHookFrameHandled func(f quicwire.Frame)

// processPayloadLocked acts on the frames of one decrypted packet of
// type pt. The payload is decoded twice by the connection's one
// FrameIter: a validating pass first, so that a packet with any
// malformed or forbidden frame has none of its frames acted on and is
// not acknowledged, and so that the ack-eliciting bit is known before
// the packet number is recorded; then the pass that handles each frame
// while it is still in the iterator's storage.
func (c *Conn) processPayloadLocked(spIdx int, pt quicwire.PacketType, pn uint64, payload []byte) {
	sp := &c.spaces[spIdx]
	it := &c.frames
	it.Reset(payload)
	frames, ackEliciting := 0, false
	for f := it.Next(); f != nil; f = it.Next() {
		if reason := c.frameViolation(f, pt); reason != "" {
			c.closeWithTransportErrorLocked(quicwire.ProtocolViolation, reason)
			return
		}
		frames++
		ackEliciting = ackEliciting || quicwire.AckEliciting(f)
	}
	if err := it.Err(); err != nil {
		c.closeWithTransportErrorLocked(quicwire.FrameEncodingError, err.Error())
		return
	}
	if frames == 0 {
		// RFC 9000, Section 12.4: a packet must contain at least one frame.
		c.closeWithTransportErrorLocked(quicwire.ProtocolViolation, "packet without frames")
		return
	}
	if sp.acks.onReceived(pn, ackEliciting) {
		return // duplicate
	}
	if int64(pn) > sp.largestRx {
		sp.largestRx = int64(pn)
	}

	it.Reset(payload)
	for f := it.Next(); f != nil; f = it.Next() {
		c.handleFrameLocked(spIdx, f)
		if testHookFrameHandled != nil {
			testHookFrameHandled(f)
		}
		if c.isClosed() {
			return
		}
	}
	c.sendPendingLocked()
}

// frameViolation returns why receiving f in a packet of type pt is a
// PROTOCOL_VIOLATION, or "" if it is not: the frame is not permitted
// in that packet type (RFC 9000, Section 12.4, Table 3), or only a
// server may send it and the peer is a client (Sections 19.7, 19.20).
func (c *Conn) frameViolation(f quicwire.Frame, pt quicwire.PacketType) string {
	if !quicwire.AllowedIn(f, pt) {
		return "frame not permitted in this packet type"
	}
	if !c.isClient {
		switch f.(type) {
		case *quicwire.HandshakeDoneFrame:
			return "HANDSHAKE_DONE from a client"
		case *quicwire.NewTokenFrame:
			return "NEW_TOKEN from a client"
		}
	}
	return ""
}

func (c *Conn) handleFrameLocked(spIdx int, f quicwire.Frame) {
	sp := &c.spaces[spIdx]
	switch fr := f.(type) {
	case *quicwire.PaddingFrame, *quicwire.PingFrame:
		// PADDING needs nothing; PING only elicits the ACK already queued.
	case *quicwire.AckFrame:
		if sp.loss.onAck(fr) {
			c.ptoCount = 0
			c.armPTOLocked()
		}
	case *quicwire.CryptoFrame:
		out, err := sp.crypto.push(fr.Offset, fr.Data)
		if err != nil {
			c.closeWithTransportErrorLocked(quicwire.CryptoBufferExceeded, err.Error())
			return
		}
		if len(out) > 0 {
			// out may alias the packet payload (cryptoAssembler.push), which
			// is gone once this datagram is processed. That is safe only
			// because QUICConn.HandleData copies data into its own buffer
			// before it returns — crypto/tls's behaviour, not its documented
			// contract. TestFrameStorageNotRetained poisons CRYPTO data as
			// soon as this handler returns, so a Go release that starts
			// retaining the slice fails every handshake in that test.
			if err := c.tls.HandleData(levelFor(spIdx), out); err != nil {
				c.closeWithTLSErrorLocked(err)
				return
			}
		}
		if err := c.drainTLSEvents(); err != nil {
			c.closeWithTLSErrorLocked(err)
			return
		}
	case *quicwire.StreamFrame:
		s, err := c.streamSet.peer(c, fr.StreamID)
		if err != nil {
			c.closeWithTransportErrorLocked(err.Code, err.Reason)
			return
		}
		s.handleData(fr.Offset, fr.Data, fr.Fin)
	case *quicwire.ResetStreamFrame:
		if s := c.streamSet.byID[fr.StreamID]; s != nil {
			s.handleReset(fr.ErrorCode)
		}
	case *quicwire.StopSendingFrame:
		// Peer no longer wants our data; nothing queued worth aborting.
	case *quicwire.HandshakeDoneFrame:
		// Only a client gets here (frameViolation).
		c.spaces[spaceHandshake].dropped = true
	case *quicwire.ConnectionCloseFrame:
		code := quicwire.TransportError(fr.ErrorCode)
		err := &quicwire.TransportErrorError{Code: code, Reason: fr.ReasonPhrase, Remote: true}
		if fr.IsApp {
			err = &quicwire.TransportErrorError{Code: quicwire.ApplicationError, Reason: fr.ReasonPhrase, Remote: true}
		}
		if !c.handshakeDone {
			c.hsErr = err
		}
		c.closeLocked(err)
	case *quicwire.PathChallengeFrame:
		c.handlePathChallengeLocked(fr.Data)
	case *quicwire.PathResponseFrame:
		c.handlePathResponseLocked(fr.Data)
	case *quicwire.NewConnectionIDFrame:
		// Store alternate IDs the peer issued; migration reserves them
		// per path so a new path never reuses a linkable ID.
		c.peerConnIDs = append(c.peerConnIDs, peerConnID{
			seq:   fr.SequenceNumber,
			id:    append(quicwire.ConnID(nil), fr.ConnectionID...),
			token: fr.StatelessResetToken,
		})
	case *quicwire.RetireConnectionIDFrame:
		c.handleRetireConnIDLocked(fr)
	case *quicwire.NewTokenFrame:
		// Address validation token for a future connection (RFC 9000,
		// Section 8.1.3): remembered alongside the session ticket so a
		// rescan's Initial skips the server's Retry round trip. The
		// frame data aliases the pooled read buffer, so copy it out.
		if c.isClient && c.sessionCache != nil && len(fr.Token) > 0 {
			c.sessionCache.storeToken(c.sessionKey, append([]byte(nil), fr.Token...))
			mNewTokensReceived.Inc()
			if c.trace != nil {
				c.trace.Event("new_token_received", "token_len", len(fr.Token))
			}
		}
	case *quicwire.MaxDataFrame, *quicwire.MaxStreamDataFrame,
		*quicwire.MaxStreamsFrame, *quicwire.DataBlockedFrame,
		*quicwire.StreamDataBlockedFrame, *quicwire.StreamsBlockedFrame:
		// Accepted and ignored: the scanner transfers too little data
		// for these to matter.
	}
}
