package quic

import (
	"net"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
)

// handleDatagram processes one received UDP payload, which may contain
// multiple coalesced QUIC packets. It runs on an executor of the
// endpoint, which calls it for one connection at a time and for a
// connection's datagrams in arrival order, or, on a pushing socket, on
// the sender's goroutine. data is owned by the caller (an executor
// passes a hand-off node, which goes back to the free list afterwards,
// a pushing socket its own copy) and is only valid for the duration of
// the call: all processing happens synchronously under c.mu, and every
// value retained past return — crypto stream data, stream segments,
// connection IDs, tokens — is copied out first.
// from is the datagram's source address (nil when the caller has no
// address context, which disables migration detection for the call);
// like data it is only valid for the duration of the call.
func (c *Conn) handleDatagram(data []byte, from net.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isClosed() {
		// Looked up just before close retired the routes. Processing it
		// could register new routes (RETIRE_CONNECTION_ID, a validated
		// path) that nothing would ever remove.
		return
	}
	c.rxFromAP = addrPortOf(from)
	// Routed by connection ID but from an unexpected source address: the
	// observable shadow of NAT rebinding and migration. Counted only: a
	// client never promotes a path, so its address route stays on
	// activeAP whatever address a datagram comes from. A datagram that
	// came by the address route is from activeAP, so it never counts.
	if ap := c.rxFromAP; c.isClient && !quicwire.IsLongHeader(data[0]) &&
		ap.IsValid() && c.activeAP.IsValid() && ap != c.activeAP {
		mRouteAddrMiss.Inc()
	}
	c.rxDgramLen = len(data)
	if c.handshakeDone {
		c.armIdleTimerLocked()
	}

	for len(data) > 0 {
		if !quicwire.IsLongHeader(data[0]) {
			c.handleShortPacketLocked(data)
			break // a short header packet extends to the datagram's end
		}
		n := c.handleLongPacketLocked(data)
		if n <= 0 {
			break
		}
		data = data[n:]
	}
	// Wake Ping once everything in flight is acknowledged: by an ACK, or
	// by a space whose keys this datagram retired.
	if c.ackedCh != nil && !c.anyUnackedLocked() {
		close(c.ackedCh)
		c.ackedCh = nil
	}
}

// handleLongPacketLocked handles one long header packet and returns
// the number of bytes it occupied (0 to abandon the datagram).
func (c *Conn) handleLongPacketLocked(data []byte) int {
	// Parse into per-conn scratch: header fields alias data (and the
	// scratch version list), so anything retained past this packet is
	// copied explicitly below.
	hdr := &c.rxHdr
	pnOff, err := quicwire.ParseLongHeaderInto(hdr, data)
	if err != nil {
		return 0
	}

	switch hdr.Type {
	case quicwire.PacketVersionNegotiation:
		c.handleVersionNegotiationLocked(hdr)
		return 0
	case quicwire.PacketRetry:
		c.handleRetryLocked(hdr, data)
		return 0
	}

	if hdr.Version != c.version {
		return 0 // not for this connection's version
	}
	var spIdx int
	switch hdr.Type {
	case quicwire.PacketInitial:
		spIdx = spaceInitial
	case quicwire.PacketHandshake:
		spIdx = spaceHandshake
	case quicwire.Packet0RTT:
		// 0-RTT shares the application packet number space but is
		// protected with the early traffic keys (RFC 9000, §12.3).
		spIdx = spaceApp
	default:
		return 0
	}
	sp := &c.spaces[spIdx]
	packetLen := pnOff + int(hdr.Length)
	recvKeys := sp.recvKeys
	if hdr.Type == quicwire.Packet0RTT {
		if c.isClient {
			return packetLen // servers never send 0-RTT
		}
		recvKeys = c.earlyRecvKeys
	}
	if sp.dropped || recvKeys == nil {
		return packetLen
	}

	pkt := data[:packetLen]
	payload, pn, _, err := recvKeys.OpenPacket(pkt, pnOff, sp.largestRx)
	if err != nil {
		return packetLen // undecryptable: ignore, do not kill the datagram
	}
	if c.trace != nil {
		c.trace.Event("packet_received", "space", spaceNames[spIdx], "pn", pn, "size", packetLen)
	}
	// On the first valid Initial from the server, the client adopts the
	// server's chosen source connection ID as its destination
	// (RFC 9000, Section 7.2).
	if c.isClient && hdr.Type == quicwire.PacketInitial && !c.dcidUpdated {
		c.dcid = append(quicwire.ConnID(nil), hdr.SrcID...)
		c.dcidUpdated = true
	}
	c.rxDCID = hdr.DstID
	c.notePeerAddressLocked(c.rxDgramLen)
	c.rxDgramLen = 0 // amplification credit is per datagram, not per packet
	c.processPayloadLocked(spIdx, hdr.Type, pn, payload)

	// Once Handshake packets flow, Initial keys are discarded on both
	// sides (RFC 9001, Section 4.9.1): the server because the client
	// provably has handshake keys, the client because it will never
	// need to send at the Initial level again.
	if hdr.Type == quicwire.PacketHandshake {
		c.spaces[spaceInitial].dropped = true
	}
	return packetLen
}

func (c *Conn) handleShortPacketLocked(data []byte) {
	sp := &c.spaces[spaceApp]
	if sp.recvKeys == nil || sp.dropped {
		return
	}
	// Undecryptable datagrams may be stateless resets; the check must
	// run on the unmodified datagram, so copy before header removal.
	// The copy lives in per-conn scratch (guarded by mu), keeping the
	// steady-state 1-RTT receive path allocation-free.
	c.rawScratch = append(c.rawScratch[:0], data...)
	raw := c.rawScratch
	_, pnOff, err := quicwire.ParseShortHeader(data, len(c.scid))
	if err != nil {
		if c.isStatelessResetLocked(raw) {
			c.closeLocked(errStatelessReset)
		}
		return
	}
	// All connection IDs this endpoint issues share scid's length, so
	// the destination ID is the same slice regardless of which one the
	// peer used (raw is the pristine copy; OpenPacket mutates data).
	c.rxDCID = raw[1 : 1+len(c.scid)]
	payload, pn, _, err := sp.recvKeys.OpenPacket(data, pnOff, sp.largestRx)
	if err != nil {
		// The peer may have initiated a key update (flipped key phase
		// bit); retry with the next key generation on a fresh copy,
		// since OpenPacket mutates its input.
		if payload2, pn2, ok := c.tryNextKeysLocked(sp, raw, pnOff); ok {
			if c.trace != nil {
				c.trace.Event("packet_received", "space", spaceNames[spaceApp], "pn", pn2, "size", len(raw))
			}
			c.notePeerAddressLocked(c.rxDgramLen)
			c.rxDgramLen = 0
			c.processPayloadLocked(spaceApp, quicwire.Packet1RTT, pn2, payload2)
			return
		}
		if c.isStatelessResetLocked(raw) {
			c.closeLocked(errStatelessReset)
		}
		return
	}
	if c.trace != nil {
		c.trace.Event("packet_received", "space", spaceNames[spaceApp], "pn", pn, "size", len(raw))
	}
	c.notePeerAddressLocked(c.rxDgramLen)
	c.rxDgramLen = 0
	c.processPayloadLocked(spaceApp, quicwire.Packet1RTT, pn, payload)
}

// tryNextKeysLocked attempts decryption with the next key generation
// and, on success, completes the key update for both directions.
func (c *Conn) tryNextKeysLocked(sp *pnSpace, raw []byte, pnOff int) ([]byte, uint64, bool) {
	if !c.handshakeDone {
		return nil, 0, false
	}
	if sp.nextRecv == nil {
		next, err := sp.recvKeys.Next()
		if err != nil {
			return nil, 0, false
		}
		sp.nextRecv = next
	}
	c.keyScratch = append(c.keyScratch[:0], raw...)
	cp := c.keyScratch
	payload, pn, _, err := sp.nextRecv.OpenPacket(cp, pnOff, sp.largestRx)
	if err != nil {
		return nil, 0, false
	}
	// The packet provably carries the next key generation; quirk
	// policies react now, after authentication, so garbage can never
	// trigger them.
	switch c.policy().KeyUpdate {
	case KeyUpdateRefuse:
		c.closeWithTransportErrorLocked(quicwire.KeyUpdateError, "key update not supported")
		return nil, 0, false
	case KeyUpdateIgnore:
		return nil, 0, false
	}
	// Commit the update: rotate read keys. If the peer initiated, the
	// send keys advance to the same generation before anything else is
	// sent (RFC 9001, 6.2); if this endpoint initiated, the send side
	// already advanced in UpdateKeys and must not advance again.
	sp.recvKeys = sp.nextRecv
	sp.nextRecv = nil
	if sp.updateInitiated {
		sp.updateInitiated = false
	} else if nextSend, err := sp.sendKeys.Next(); err == nil {
		sp.sendKeys = nextSend
		sp.sendPhase = !sp.sendPhase
	}
	return payload, pn, true
}

func (c *Conn) handleVersionNegotiationLocked(hdr *quicwire.Header) {
	// A VN packet is only acted on before any packet has been
	// successfully processed (RFC 9000, Section 6.2).
	if c.stats.VersionNegotiation || c.spaces[spaceInitial].largestRx >= 0 || c.handshakeDone {
		return
	}
	c.stats.VersionNegotiation = true
	// The header's version list is parse scratch; everything that
	// survives this call (Stats, the handshake error) shares one copy.
	serverVersions := append([]quicwire.Version(nil), hdr.SupportedVersions...)
	c.stats.ServerVersions = serverVersions
	// Not from Stats at close: the retry connection also reports this VN.
	mVNReceived.Inc()
	for _, v := range serverVersions {
		mVNByVersion.With(v.String()).Inc()
	}
	if c.trace != nil {
		names := make([]string, len(serverVersions))
		for i, v := range serverVersions {
			names[i] = v.String()
		}
		c.trace.Event("version_negotiation", "server_versions", names)
	}
	// A VN listing the offered version is invalid and must be ignored.
	for _, v := range serverVersions {
		if v == c.version {
			return
		}
	}
	c.hsErr = &VersionNegotiationError{Offered: c.cfg.Versions, Server: serverVersions}
	c.closeLocked(c.hsErr)
}

func (c *Conn) handleRetryLocked(hdr *quicwire.Header, pkt []byte) {
	if !c.isClient || c.stats.Retried || c.spaces[spaceInitial].largestRx >= 0 {
		return
	}
	if err := quiccrypto.VerifyRetryIntegrity(c.version, c.origDcid, pkt); err != nil {
		return
	}
	c.stats.Retried = true
	if c.trace != nil {
		c.trace.Event("retry_received", "token_len", len(hdr.Token))
	}
	c.retryToken = append([]byte(nil), hdr.Token...)
	c.dcid = append(quicwire.ConnID(nil), hdr.SrcID...)
	// Initial keys are re-derived from the Retry source connection ID.
	prevOrig := c.origDcid
	c.origDcid = c.dcid
	if err := c.setupInitialKeys(); err != nil {
		c.origDcid = prevOrig
		return
	}
	// Retransmit the pending first flight with the token attached.
	sp := &c.spaces[spaceInitial]
	sp.outFrames = sp.loss.takeUnacked(sp.outFrames)
	c.sendPendingLocked()
}
