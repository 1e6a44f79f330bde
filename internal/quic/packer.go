package quic

import (
	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
)

// maxCryptoChunk bounds CRYPTO frame data per packet, leaving room for
// headers and the AEAD tag within a datagram.
const packetOverheadBudget = 96

// zeroPad is the shared source of PADDING bytes (frame type 0x00):
// padding is appended by slicing it instead of allocating or growing
// byte-at-a-time per Initial.
var zeroPad [quicwire.MinInitialSize]byte

// sendPendingLocked drains all queued frames and crypto data into
// protected datagrams and transmits them. Must be called with c.mu
// held.
func (c *Conn) sendPendingLocked() {
	for {
		datagram, sentAny := c.packDatagramLocked()
		if !sentAny {
			break
		}
		c.stats.BytesSent += len(datagram)
		if err := c.ep.send(c.sock, datagram, c.remote); err != nil {
			c.closeLocked(err)
			return
		}
	}
	c.armPTOLocked()
}

// cryptoOffsets tracks per-space CRYPTO send offsets. They live on the
// space to survive multiple pack calls.
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

// packDatagramLocked assembles one datagram with as many coalesced
// packets as fit. It returns the datagram and whether anything was
// packed.
func (c *Conn) packDatagramLocked() ([]byte, bool) {
	budget := c.cfg.MaxDatagramSize
	// The datagram is assembled in per-conn scratch (guarded by mu):
	// the socket write never retains it, so the buffer is reusable the
	// moment sendPendingLocked's send returns.
	datagram := c.datagramScratch[:0]
	packedAny := false
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
		pkt := c.packPacketLocked(idx, remaining)
		if pkt == nil {
			continue
		}
		if idx == spaceInitial {
			containsInitial = true
		}
		datagram = append(datagram, pkt...)
		packedAny = true
	}

	if !packedAny {
		c.datagramScratch = datagram
		return nil, false
	}

	// Datagrams carrying Initial packets must be at least 1200 bytes
	// (RFC 9000, Section 14.1). packPacketLocked pads the plaintext of
	// every Initial so the sealed packet alone satisfies this; the
	// check here is a defensive backstop.
	if containsInitial && len(datagram) < quicwire.MinInitialSize {
		datagram = append(datagram, zeroPad[:quicwire.MinInitialSize-len(datagram)]...)
	}
	c.datagramScratch = datagram
	return datagram, true
}

// packPacketLocked builds one protected packet for the given space
// within the size budget, or nil if nothing is pending.
func (c *Conn) packPacketLocked(idx int, budget int) []byte {
	sp := &c.spaces[idx]
	sendKeys := sp.sendKeys
	early := false
	if idx == spaceApp && sendKeys == nil && c.earlySendKeys != nil {
		sendKeys = c.earlySendKeys
		early = true
	}

	// The frame list and the payload they are serialized into, as they
	// are chosen, are per-conn scratch: loss tracking copies the
	// ack-eliciting frames it retains (lossState.onSent), so both are
	// free for reuse by the next packet. Queued frames go first, then
	// fresh CRYPTO data. Oversized CRYPTO and STREAM frames (e.g.
	// retransmitted ClientHello chunks after a Retry) are split so a
	// frame larger than one packet can never stall the queue. The size
	// budget counts the queued and CRYPTO frames only, not the ACK in
	// front of them.
	frames := c.frameScratch[:0]
	payload := c.payloadScratch[:0]
	if sp.acks.needsAck() && !early && sp.acks.buildAck(&c.ackScratch) {
		frames = append(frames, &c.ackScratch)
		payload = c.ackScratch.Append(payload)
	}
	ackLen := len(payload)
	taken := 0
	for taken < len(sp.outFrames) {
		f := sp.outFrames[taken]
		avail := budget - packetOverheadBudget - (len(payload) - ackLen)
		before := len(payload)
		payload = f.Append(payload)
		if len(payload)-before > avail {
			payload = payload[:before]
			if head, rest, ok := splitFrame(f, avail); ok {
				sp.outFrames[taken] = rest
				payload = head.Append(payload)
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
		if cf := sp.takeCrypto(budget - packetOverheadBudget - (len(payload) - ackLen)); cf != nil {
			payload = cf.Append(payload)
			frames = append(frames, cf)
		}
	}

	c.frameScratch = frames
	if len(frames) == 0 {
		return nil
	}

	pn := sp.nextPN
	sp.nextPN++
	pnLen := quicwire.PacketNumberLenFor(pn, sp.loss.largestAcked)
	if pnLen < 2 {
		pnLen = 2 // keep headers uniform and samples long enough
	}

	// The payload plus packet number must be at least 4 bytes for
	// header protection sampling.
	for len(payload)+pnLen < 4 {
		payload = append(payload, 0)
	}

	pkt := c.pktScratch[:0]
	var pnOff int
	switch idx {
	case spaceInitial, spaceHandshake:
		typ := quicwire.PacketInitial
		token := []byte(nil)
		if idx == spaceInitial {
			if c.isClient {
				token = c.retryToken
			}
		} else {
			typ = quicwire.PacketHandshake
		}
		// A client Initial must arrive in a 1200-byte datagram; pad
		// the plaintext so the sealed packet alone satisfies it.
		if idx == spaceInitial {
			target := quicwire.MinInitialSize - c.headerOverheadLocked(typ, len(token), pnLen) - quiccrypto.SealOverhead
			if n := target - len(payload); n > 0 {
				payload = append(payload, zeroPad[:n]...)
			}
		}
		// The header lives in per-conn scratch: AppendLongHeader
		// serializes it immediately and nothing retains it.
		c.hdrScratch = quicwire.Header{
			Type:            typ,
			Version:         c.version,
			DstID:           c.dcid,
			SrcID:           c.scid,
			Token:           token,
			PacketNumber:    pn,
			PacketNumberLen: pnLen,
		}
		pkt, pnOff = quicwire.AppendLongHeader(pkt, &c.hdrScratch, len(payload)+quiccrypto.SealOverhead)
	default:
		if early {
			// 0-RTT uses a long header: the server must learn the
			// version and connection IDs before 1-RTT short headers
			// become routable (RFC 9000, Section 17.2.3).
			c.hdrScratch = quicwire.Header{
				Type:            quicwire.Packet0RTT,
				Version:         c.version,
				DstID:           c.dcid,
				SrcID:           c.scid,
				PacketNumber:    pn,
				PacketNumberLen: pnLen,
			}
			pkt, pnOff = quicwire.AppendLongHeader(pkt, &c.hdrScratch, len(payload)+quiccrypto.SealOverhead)
			break
		}
		pkt, pnOff = quicwire.AppendShortHeader(pkt, c.dcid, pn, pnLen, sp.sendPhase)
	}
	pkt = append(pkt, payload...)
	c.payloadScratch = payload
	pkt = sendKeys.SealPacket(pkt, pnOff, pnLen, pn)
	// Keep the grown buffer; the caller copies pkt into the datagram
	// before the next packPacketLocked call reuses it.
	c.pktScratch = pkt

	sp.loss.onSent(pn, frames)
	if c.trace != nil {
		space := spaceNames[idx]
		if early {
			space = "0rtt"
		}
		c.trace.Event("packet_sent", "space", space, "pn", pn, "size", len(pkt))
	}
	return pkt
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

// headerOverheadLocked computes the long header size for padding math.
func (c *Conn) headerOverheadLocked(typ quicwire.PacketType, tokenLen, pnLen int) int {
	n := 1 + 4 + 1 + len(c.dcid) + 1 + len(c.scid)
	if typ == quicwire.PacketInitial {
		n += quicwire.VarintLen(uint64(tokenLen)) + tokenLen
	}
	n += 2 // Length field (2-byte varint)
	n += pnLen
	return n
}
