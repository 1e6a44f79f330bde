package quic

import (
	"slices"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
)

// packetOverheadBudget is what a packet's frame budget holds back for
// its header and AEAD tag within a datagram.
const packetOverheadBudget = 96

// zeroPad is the shared source of PADDING bytes (frame type 0x00):
// padding is appended by slicing it instead of allocating or growing
// byte-at-a-time per Initial.
var zeroPad [quicwire.MinInitialSize]byte

// sendPendingLocked drains all queued frames and crypto data into
// protected datagrams and transmits them. Every datagram is built in
// place in one send buffer leased for this call (bufpool.go); the
// socket write copies it, so the next datagram reuses it. Must be
// called with c.mu held.
func (c *Conn) sendPendingLocked() {
	buf := leaseSendBuf()
	defer releaseSendBuf(buf)
	datagram := buf[:0]
	tracked := c.trackedLocked()
	for {
		if datagram = c.packDatagramLocked(datagram[:0]); len(datagram) == 0 {
			break
		}
		if err := c.ep.send(c.sock, datagram, c.remote); err != nil {
			c.closeLocked(err)
			return
		}
		c.stats.BytesSent += len(datagram)
	}
	// While packets await an ACK, their retransmission deadline
	// restarts when an ack-eliciting packet leaves or is acknowledged
	// (handleFrameLocked), not for an ACK alone (RFC 9002, Section
	// 6.2.1): a peer whose probes this side only acknowledges must not
	// postpone its retransmission forever.
	if c.ptoDeadline.IsZero() || !c.anyUnackedLocked() || c.trackedLocked() != tracked {
		c.armPTOLocked()
	}
}

// trackedLocked counts the ack-eliciting packets awaiting an ACK.
func (c *Conn) trackedLocked() int {
	n := 0
	for i := range c.spaces {
		n += len(c.spaces[i].loss.sent)
	}
	return n
}

// takeCrypto cuts the next CRYPTO frame, of at most max bytes, off the
// space's pending TLS data. The send offset lives on the space, so it
// survives from one packet to the next.
func (sp *pnSpace) takeCrypto(max int) *quicwire.CryptoFrame {
	if len(sp.outCrypto) == 0 || max <= 0 {
		return nil
	}
	n := len(sp.outCrypto)
	if n > max {
		n = max
	}
	f := &quicwire.CryptoFrame{Offset: sp.cryptoOffset, Data: sp.outCrypto[:n:n]}
	sp.outCrypto = sp.outCrypto[n:]
	sp.cryptoOffset += uint64(n)
	return f
}

// pnLen is the length the space's next packet number is encoded with.
// It is never below 2, which keeps headers uniform and samples long
// enough.
func (sp *pnSpace) pnLen() int {
	return max(2, quicwire.PacketNumberLenFor(sp.nextPN, sp.loss.largestAcked))
}

// packDatagramLocked appends to datagram (an empty send buffer) one
// datagram with as many coalesced packets as fit, and returns it; it
// stays empty when nothing is pending.
func (c *Conn) packDatagramLocked(datagram []byte) []byte {
	budget := c.cfg.MaxDatagramSize
	containsInitial := false

	for idx := spaceInitial; idx <= spaceApp; idx++ {
		sp := &c.spaces[idx]
		// Before the 1-RTT send keys exist, a client holding early
		// traffic keys emits its application-space queue as 0-RTT long
		// header packets (same packet number space, different keys).
		early := idx == spaceApp && sp.sendKeys == nil && c.earlySendKeys != nil
		if sp.dropped || (sp.sendKeys == nil && !early) {
			continue
		}
		if early {
			// 0-RTT packets carry neither ACK nor CRYPTO frames
			// (RFC 9000, Section 12.4): only the queued frames count.
			if len(sp.outFrames) == 0 {
				continue
			}
		} else if len(sp.outCrypto) == 0 && len(sp.outFrames) == 0 && !sp.acks.needsAck() {
			continue
		}
		remaining := budget - len(datagram)
		if remaining < 256 {
			break // leave for the next datagram
		}
		n := len(datagram)
		datagram = c.appendPacketLocked(datagram, idx, early, remaining)
		if idx == spaceInitial && len(datagram) > n {
			containsInitial = true
		}
	}

	// Datagrams carrying Initial packets must be at least 1200 bytes
	// (RFC 9000, Section 14.1). appendPacketLocked pads every Initial
	// so the sealed packet alone satisfies this; the check here is a
	// defensive backstop.
	if containsInitial && len(datagram) < quicwire.MinInitialSize {
		datagram = append(datagram, zeroPad[:quicwire.MinInitialSize-len(datagram)]...)
	}
	return datagram
}

// appendPacketLocked builds one protected packet for the given space in
// place at the end of b, within budget bytes, and returns b; b is
// returned unchanged, and no packet number is used, if nothing is
// pending.
func (c *Conn) appendPacketLocked(b []byte, idx int, early bool, budget int) []byte {
	sp := &c.spaces[idx]
	sendKeys := sp.sendKeys
	if early {
		sendKeys = c.earlySendKeys
	}
	start := len(b)
	pn, pnLen := sp.nextPN, sp.pnLen()
	b, pnOff := c.appendHeaderLocked(b, idx, early, c.dcid, pn, pnLen)

	// The frame list is per-conn scratch: loss tracking copies the
	// ack-eliciting frames it retains (lossState.onSent), so it is free
	// for reuse by the next packet. Queued frames are serialized straight
	// after the header, then fresh CRYPTO data; a frame that does not fit
	// is rolled back. Oversized CRYPTO and STREAM frames (e.g.
	// retransmitted ClientHello chunks after a Retry) are split so a
	// frame larger than one packet can never stall the queue. The size
	// budget counts the queued and CRYPTO frames only, not the header or
	// the ACK in front of them.
	frames := c.frameScratch[:0]
	if sp.acks.needsAck() && !early && sp.acks.buildAck(&c.ackScratch) {
		frames = append(frames, &c.ackScratch)
		b = c.ackScratch.Append(b)
	}
	ackEnd := len(b)
	taken := 0
	for taken < len(sp.outFrames) {
		f := sp.outFrames[taken]
		avail := budget - packetOverheadBudget - (len(b) - ackEnd)
		before := len(b)
		fits := !dataExceeds(f, avail)
		if fits {
			b = f.Append(b)
			fits = len(b)-before <= avail
		}
		if !fits {
			b = b[:before]
			if head, rest, ok := splitFrame(f, avail); ok {
				sp.outFrames[taken] = rest
				b = head.Append(b)
				frames = append(frames, head)
			}
			break
		}
		frames = append(frames, f)
		taken++
	}
	// Close the gap at the front instead of slicing it off, so the
	// queue keeps its backing array for the frames queued next.
	rest := copy(sp.outFrames, sp.outFrames[taken:])
	clear(sp.outFrames[rest:])
	sp.outFrames = sp.outFrames[:rest]

	if !early {
		if cf := sp.takeCrypto(budget - packetOverheadBudget - (len(b) - ackEnd)); cf != nil {
			b = cf.Append(b)
			frames = append(frames, cf)
		}
	}

	c.frameScratch = frames
	if len(frames) == 0 {
		return b[:start]
	}
	sp.nextPN++

	// A client Initial must arrive in a 1200-byte datagram; every
	// Initial is padded so the sealed packet alone satisfies it.
	padTo := 0
	if idx == spaceInitial {
		padTo = quicwire.MinInitialSize
	}
	b = sealPacket(b, start, pnOff, pnLen, pn, sendKeys, padTo)

	sp.loss.onSent(pn, frames)
	if c.trace != nil {
		space := spaceNames[idx]
		if early {
			space = "0rtt"
		}
		c.trace.Event("packet_sent", "space", space, "pn", pn, "size", len(b)-start)
	}
	return b
}

// appendHeaderLocked appends the header of packet pn in space idx,
// addressed to dcid, and returns b and the offset of the packet number
// in it. A long header's Length is a placeholder until sealPacket
// patches it.
func (c *Conn) appendHeaderLocked(b []byte, idx int, early bool, dcid quicwire.ConnID, pn uint64, pnLen int) ([]byte, int) {
	var typ quicwire.PacketType
	var token []byte
	switch {
	case idx == spaceInitial:
		typ = quicwire.PacketInitial
		if c.isClient {
			token = c.retryToken
		}
	case idx == spaceHandshake:
		typ = quicwire.PacketHandshake
	case early:
		// 0-RTT uses a long header: the server must learn the version
		// and connection IDs before 1-RTT short headers become routable
		// (RFC 9000, Section 17.2.3).
		typ = quicwire.Packet0RTT
	default:
		return quicwire.AppendShortHeader(b, dcid, pn, pnLen, c.spaces[spaceApp].sendPhase)
	}
	// The header lives in per-conn scratch: AppendLongHeader serializes
	// it immediately and nothing retains it.
	c.hdrScratch = quicwire.Header{
		Type:            typ,
		Version:         c.version,
		DstID:           dcid,
		SrcID:           c.scid,
		Token:           token,
		PacketNumber:    pn,
		PacketNumberLen: pnLen,
	}
	return quicwire.AppendLongHeader(b, &c.hdrScratch, 0)
}

// sealPacket finishes the packet whose header starts at b[start] and
// whose frames follow it to the end of b. It pads the payload so header
// protection has its sample and the sealed packet is at least padTo
// bytes long, patches a long header's Length (always a 2-byte varint),
// and protects the packet in place; it returns b extended by the AEAD
// tag.
func sealPacket(b []byte, start, pnOff, pnLen int, pn uint64, keys *quiccrypto.Keys, padTo int) []byte {
	// The packet number and payload together must be at least 4 bytes
	// for header protection sampling.
	for len(b)-pnOff < 4 {
		b = append(b, 0)
	}
	if n := padTo - quiccrypto.SealOverhead - (len(b) - start); n > 0 {
		b = append(b, zeroPad[:n]...)
	}
	if quicwire.IsLongHeader(b[start]) {
		quicwire.AppendVarintWithLen(b[:pnOff-2], uint64(len(b)-pnOff+quiccrypto.SealOverhead), 2)
	}
	// With room for the tag, SealPacket seals in place.
	b = slices.Grow(b, quiccrypto.SealOverhead)
	return b[:start+len(keys.SealPacket(b[start:], pnOff-start, pnLen, pn))]
}

// dataExceeds reports whether f is a CRYPTO or STREAM frame whose data
// alone is at least avail bytes, so its encoding cannot fit in avail.
// Such a frame is split without being serialized first: a frame larger
// than the send buffer must not grow it only to be rolled back.
func dataExceeds(f quicwire.Frame, avail int) bool {
	switch fr := f.(type) {
	case *quicwire.CryptoFrame:
		return len(fr.Data) >= avail
	case *quicwire.StreamFrame:
		return len(fr.Data) >= avail
	}
	return false
}

// splitFrame cuts a CRYPTO or STREAM frame so its head fits in avail
// serialized bytes. A FIN bit stays with the tail.
func splitFrame(f quicwire.Frame, avail int) (head, rest quicwire.Frame, ok bool) {
	// Leave room for type byte and worst-case varint offsets/lengths.
	n := avail - 20
	if n <= 0 {
		return nil, nil, false
	}
	switch fr := f.(type) {
	case *quicwire.CryptoFrame:
		if n >= len(fr.Data) {
			return nil, nil, false // would have fit; nothing to split
		}
		head = &quicwire.CryptoFrame{Offset: fr.Offset, Data: fr.Data[:n]}
		rest = &quicwire.CryptoFrame{Offset: fr.Offset + uint64(n), Data: fr.Data[n:]}
		return head, rest, true
	case *quicwire.StreamFrame:
		if n >= len(fr.Data) {
			return nil, nil, false
		}
		head = &quicwire.StreamFrame{StreamID: fr.StreamID, Offset: fr.Offset, Data: fr.Data[:n]}
		rest = &quicwire.StreamFrame{StreamID: fr.StreamID, Offset: fr.Offset + uint64(n), Data: fr.Data[n:], Fin: fr.Fin}
		return head, rest, true
	}
	return nil, nil, false
}
