package quic

import (
	crand "crypto/rand"
	"net"
	"net/netip"
	"time"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
)

// Path validation and connection migration (RFC 9000, Sections 8.2 and
// 9). A connection has one active path — the (local, peer) address
// pair traffic currently flows on — plus up to maxPaths alternates in
// various states of validation. Servers react to a peer address change
// by validating the new path with PATH_CHALLENGE before redirecting
// traffic to it. A client never changes paths itself: the scanner does
// not migrate, and a server's packets may legitimately arrive from
// addresses the client never sent to (a load balancer's egress).

// maxPaths bounds the per-connection alternate path set; an attacker
// spraying spoofed source addresses must not grow connection state
// without bound (RFC 9000, Section 9.3.2).
const maxPaths = 4

// maxPathProbes is how many times one PATH_CHALLENGE is retried before
// the path is declared unreachable.
const maxPathProbes = 3

// pathStatus is the validation state of one network path.
type pathStatus int

const (
	pathUnvalidated pathStatus = iota
	pathValidating
	pathValidated
	pathFailed
)

// pathState tracks one peer address and its validation progress.
// Guarded by c.mu.
type pathState struct {
	remote net.Addr       // materialized peer address (never aliases read-loop scratch)
	ap     netip.AddrPort // canonical (unmapped) form of remote
	status pathStatus

	challenge [8]byte // outstanding PATH_CHALLENGE data
	retries   int
	// deadline is when the connection's timer re-sends the challenge
	// (zero while no challenge is outstanding).
	deadline time.Time

	// Anti-amplification accounting (RFC 9000, Section 8): until the
	// path is validated a server may send at most three times the bytes
	// it received from the address.
	bytesIn  int
	bytesOut int

	// dcid is the peer-issued connection ID reserved for this path, so
	// migrating rotates connection IDs and defeats cross-path linkage
	// (RFC 9000, Section 9.5). Zero dcidSeq with nil dcid means the
	// path falls back to the connection's current destination ID.
	dcid    quicwire.ConnID
	dcidSeq uint64

	// respPending holds a PATH_RESPONSE the amplification limit blocked:
	// an off-path PATH_CHALLENGE can arrive when the 3x budget is already
	// spent (e.g. on this side's own challenge probe), and the datagram
	// that carried it was ACKed, so the peer will not loss-retransmit.
	// The response is retried as soon as the path earns more credit.
	respPending bool
	respData    [8]byte
}

// localConnID is a connection ID this endpoint issued for itself via
// NEW_CONNECTION_ID (sequence 0 is the handshake source ID).
type localConnID struct {
	seq uint64
	id  quicwire.ConnID
}

// addrPortOf canonicalizes a net.Addr to an unmapped netip.AddrPort.
// The *net.UDPAddr fast path is allocation-free, which matters because
// every received datagram passes through here.
func addrPortOf(a net.Addr) netip.AddrPort {
	var ap netip.AddrPort
	switch v := a.(type) {
	case *net.UDPAddr:
		ap = v.AddrPort()
	case interface{ AddrPort() netip.AddrPort }:
		ap = v.AddrPort()
	default:
		if a == nil {
			return netip.AddrPort{}
		}
		ap, _ = netip.ParseAddrPort(a.String())
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// initPathLocked records the handshake peer address as the active
// path. Called once at connection setup.
func (c *Conn) initPathLocked(remote net.Addr) {
	c.activeAP = addrPortOf(remote)
}

// findPathLocked returns the alternate path for ap, or nil.
func (c *Conn) findPathLocked(ap netip.AddrPort) *pathState {
	for _, p := range c.paths {
		if p.ap == ap {
			return p
		}
	}
	return nil
}

// notePeerAddressLocked inspects the source address of a successfully
// decrypted packet (recorded in c.rxFromAP by handleDatagram) and
// drives the migration state machine when it differs from the active
// path. dgramLen credits the anti-amplification budget of the path.
func (c *Conn) notePeerAddressLocked(dgramLen int) {
	ap := c.rxFromAP
	if !ap.IsValid() || !c.activeAP.IsValid() || ap == c.activeAP {
		return
	}
	if c.isClient {
		// A server may legitimately send from addresses the client
		// never targeted (load balancer egress); clients change paths
		// only deliberately.
		return
	}
	if !c.handshakeDone {
		// Pre-handshake rebind: adopt the new address directly. The
		// handshake itself proves the peer owns it (RFC 9000, Section
		// 8.1), and a challenge exchange here would deadlock the very
		// handshake that carries it.
		c.adoptPeerAddressLocked(ap)
		return
	}
	p := c.findPathLocked(ap)
	if p == nil {
		if len(c.paths) >= maxPaths {
			return
		}
		p = &pathState{remote: net.UDPAddrFromAddrPort(ap), ap: ap}
		c.reservePathCIDLocked(p)
		c.paths = append(c.paths, p)
	}
	p.bytesIn += dgramLen
	c.flushPathResponseLocked(p)
	switch p.status {
	case pathValidated:
		// Seen before and already proven — a NAT flapping between two
		// bindings. Promote without a fresh round trip.
		c.promotePathLocked(p)
	case pathUnvalidated:
		if c.policy().Migration == MigrationDisabled {
			// Policy quirk: the deployment advertises (or just enforces)
			// disable_active_migration by pretending not to notice the
			// move. Traffic keeps flowing to the old, now-dead address.
			return
		}
		c.startPathValidationLocked(p)
	case pathValidating, pathFailed:
		// Probe in flight, or given up: nothing to do per packet.
	}
}

// adoptPeerAddressLocked switches the active path without validation
// (pre-handshake only).
func (c *Conn) adoptPeerAddressLocked(ap netip.AddrPort) {
	c.remote = net.UDPAddrFromAddrPort(ap)
	old := c.activeAP
	c.activeAP = ap
	if c.trace != nil {
		c.trace.Event("path_adopted", "old", old.String(), "new", ap.String())
	}
}

// reservePathCIDLocked assigns an unused peer-issued connection ID to
// the path so packets on it are unlinkable to the old path. Without a
// spare ID the path reuses the connection's current destination ID.
func (c *Conn) reservePathCIDLocked(p *pathState) {
	for _, pc := range c.peerConnIDs {
		if pc.seq <= c.dcidSeq {
			continue
		}
		inUse := false
		for _, other := range c.paths {
			if other.dcid != nil && other.dcidSeq == pc.seq {
				inUse = true
				break
			}
		}
		if !inUse {
			p.dcid = pc.id
			p.dcidSeq = pc.seq
			return
		}
	}
}

// startPathValidationLocked issues a fresh PATH_CHALLENGE on the path
// and arms its probe deadline.
func (c *Conn) startPathValidationLocked(p *pathState) {
	if _, err := crand.Read(p.challenge[:]); err != nil {
		return
	}
	p.status = pathValidating
	p.retries = 0
	c.stats.PathChallengesSent++
	if c.trace != nil {
		c.trace.Event("path_challenge_sent", "path", p.ap.String())
	}
	c.sendPathProbeLocked(p, true, &quicwire.PathChallengeFrame{Data: p.challenge})
	p.deadline = time.Now().Add(c.backoff(0))
	c.armTimerLocked()
}

// onPathTimeoutLocked retries or abandons an unanswered PATH_CHALLENGE
// at the path's probe deadline.
func (c *Conn) onPathTimeoutLocked(p *pathState, now time.Time) {
	if p.retries >= maxPathProbes {
		p.status = pathFailed
		c.stats.PathValidationFailures++
		if c.trace != nil {
			c.trace.Event("path_validation_failed", "path", p.ap.String())
		}
		return
	}
	p.retries++
	c.stats.PathChallengesSent++
	c.sendPathProbeLocked(p, true, &quicwire.PathChallengeFrame{Data: p.challenge})
	p.deadline = now.Add(c.backoff(p.retries))
}

// sendPathProbeLocked builds and transmits one 1-RTT probe datagram on
// an alternate path, outside the normal send pipeline: it uses the
// path's own destination connection ID, is not loss-tracked (the path
// timer owns retransmission), and respects the 3x anti-amplification
// limit while the path is unvalidated. pad expands PATH_CHALLENGE
// datagrams toward 1200 bytes to also probe the path MTU, as far as
// the amplification budget allows. Reports whether the datagram was
// actually sent — the budget can block it entirely, and then no packet
// number is used.
func (c *Conn) sendPathProbeLocked(p *pathState, pad bool, f quicwire.Frame) bool {
	sp := &c.spaces[spaceApp]
	if sp.sendKeys == nil || sp.dropped {
		return false
	}
	dcid := p.dcid
	if dcid == nil {
		dcid = c.dcid
	}
	// Size budget: the sealed datagram must stay within the
	// amplification limit on server-unvalidated paths.
	budget := c.maxDatagramLocked()
	if !c.isClient && p.status != pathValidated {
		if allowed := 3*p.bytesIn - p.bytesOut; allowed < budget {
			budget = allowed
		}
	}
	buf := leaseSendBuf()
	defer releaseSendBuf(buf)
	pn, pnLen := sp.nextPN, sp.pnLen()
	pkt, pnOff := c.appendHeaderLocked(buf[:0], spaceApp, false, dcid, pn, pnLen)
	pkt = f.Append(pkt)
	// The smallest packet sealPacket can make of it: the sample needs
	// four bytes from the packet number on.
	if max(len(pkt), pnOff+4)+quiccrypto.SealOverhead > budget {
		return false // amplification budget exhausted; the retry timer tries again
	}
	padTo := 0
	if pad {
		padTo = min(quicwire.MinInitialSize, budget)
	}
	sp.nextPN++
	pkt = sealPacket(pkt, 0, pnOff, pnLen, pn, sp.sendKeys, padTo)
	p.bytesOut += len(pkt)
	if c.trace != nil {
		c.trace.Event("packet_sent", "space", spaceNames[spaceApp], "pn", pn, "size", len(pkt), "path", p.ap.String())
	}
	// A write the socket refuses is a probe lost on the path: its timer
	// sends again.
	c.ep.send(c.sock, pkt, p.remote)
	return true
}

// flushPathResponseLocked retries a PATH_RESPONSE the amplification
// limit previously blocked. Called whenever the path earns credit (a
// new datagram arrived on it) or stops being budget-limited (it was
// promoted to the active path).
func (c *Conn) flushPathResponseLocked(p *pathState) {
	if !p.respPending {
		return
	}
	if p.ap == c.activeAP {
		c.spaces[spaceApp].outFrames = append(c.spaces[spaceApp].outFrames,
			&quicwire.PathResponseFrame{Data: p.respData})
		p.respPending = false
		return
	}
	if c.sendPathProbeLocked(p, false, &quicwire.PathResponseFrame{Data: p.respData}) {
		p.respPending = false
	}
}

// handlePathChallengeLocked answers a peer's PATH_CHALLENGE. The
// response must travel on the path the challenge arrived on (RFC 9000,
// Section 8.2.2): for the active path it rides the normal send queue,
// for an alternate address it goes out as an immediate probe datagram.
func (c *Conn) handlePathChallengeLocked(data [8]byte) {
	c.stats.PathChallengesReceived++
	ap := c.rxFromAP
	if !ap.IsValid() || !c.activeAP.IsValid() || ap == c.activeAP {
		c.spaces[spaceApp].outFrames = append(c.spaces[spaceApp].outFrames,
			&quicwire.PathResponseFrame{Data: data})
		return
	}
	if c.policy().Migration == MigrationDisabled {
		return // the migration-hostile quirk stays silent off-path
	}
	p := c.findPathLocked(ap)
	if p == nil {
		if len(c.paths) >= maxPaths {
			return
		}
		p = &pathState{remote: net.UDPAddrFromAddrPort(ap), ap: ap}
		c.reservePathCIDLocked(p)
		c.paths = append(c.paths, p)
	}
	if !c.sendPathProbeLocked(p, false, &quicwire.PathResponseFrame{Data: data}) {
		p.respData = data
		p.respPending = true
	}
}

// handlePathResponseLocked matches a PATH_RESPONSE against outstanding
// challenges. Matching is by the echoed 8 bytes alone — the response
// may arrive from a different address than the challenge probed
// (RFC 9000, Section 8.2.3).
func (c *Conn) handlePathResponseLocked(data [8]byte) {
	for _, p := range c.paths {
		if p.status == pathValidating && p.challenge == data {
			p.status = pathValidated
			p.retries = 0
			p.deadline = time.Time{}
			c.stats.PathValidations++
			if c.trace != nil {
				c.trace.Event("path_validated", "path", p.ap.String())
			}
			c.promotePathLocked(p)
			return
		}
	}
	// Unmatched responses are ignored (late duplicates, or off-path
	// spoofing attempts).
}

// promotePathLocked redirects the connection to a validated path:
// future sends target its address, the destination connection ID
// rotates to the path's reserved ID (retiring the old one). Only a
// server promotes a path, and a server connection has no address route,
// so the route table is left as it is.
func (c *Conn) promotePathLocked(p *pathState) {
	if p.ap == c.activeAP {
		return
	}
	if p.respPending {
		// A response owed on this path is no longer budget-limited once
		// the path is active; it rides the normal send queue from here.
		c.spaces[spaceApp].outFrames = append(c.spaces[spaceApp].outFrames,
			&quicwire.PathResponseFrame{Data: p.respData})
		p.respPending = false
	}
	old := c.remote
	oldAP := c.activeAP
	c.remote = p.remote
	c.activeAP = p.ap
	if p.dcid != nil {
		retired := c.dcidSeq
		c.dcid = p.dcid
		c.dcidSeq = p.dcidSeq
		c.spaces[spaceApp].outFrames = append(c.spaces[spaceApp].outFrames,
			&quicwire.RetireConnectionIDFrame{SequenceNumber: retired})
	}
	// The old active address remains a known, validated path (NAT
	// bindings flap back); remember it in place of the promoted one.
	p.remote = old
	p.ap = oldAP
	p.status = pathValidated
	p.dcid = nil
	p.dcidSeq = 0
	c.stats.Migrations++
	if c.trace != nil {
		c.trace.Event("path_migrated", "old", oldAP.String(), "new", c.activeAP.String())
	}
	if c.policy().Migration == MigrationValidateBreak {
		// The validates-then-breaks quirk: the deployment walks the
		// whole validation dance, then slams the door.
		c.closeWithTransportErrorLocked(quicwire.NoError, "migration disabled")
	}
}

// ensureLocalCIDsLocked seeds the issued-connection-ID table with the
// handshake source ID (sequence 0).
func (c *Conn) ensureLocalCIDsLocked() {
	if len(c.localCIDs) > 0 {
		return
	}
	c.localCIDs = append(c.localCIDs, localConnID{seq: 0, id: c.scid})
	c.nextLocalCIDSeq = 1
}

// issueConnIDsLocked mints up to n alternate connection IDs, routes
// them to this connection through its endpoint, and queues the
// NEW_CONNECTION_ID frames. It stops where the peer would hold more of
// our IDs, sequence 0 included, than its active_connection_id_limit
// (RFC 9000, Section 5.1.1), so it issues none before the peer's
// transport parameters are in.
func (c *Conn) issueConnIDsLocked(n int) {
	c.ensureLocalCIDsLocked()
	for i := 0; i < n && uint64(len(c.localCIDs)) < c.peerParams.ActiveConnectionIDLimit; i++ {
		altID := quicwire.NewRandomConnID(len(c.scid))
		token, ok := c.ep.addConnID(c, altID)
		if !ok {
			return
		}
		seq := c.nextLocalCIDSeq
		c.nextLocalCIDSeq++
		c.localCIDs = append(c.localCIDs, localConnID{seq: seq, id: altID})
		c.spaces[spaceApp].outFrames = append(c.spaces[spaceApp].outFrames,
			&quicwire.NewConnectionIDFrame{
				SequenceNumber:      seq,
				ConnectionID:        altID,
				StatelessResetToken: token,
			})
	}
}

// handleRetireConnIDLocked processes a peer's RETIRE_CONNECTION_ID:
// retiring a never-issued sequence number or the very connection ID
// the frame arrived on is a PROTOCOL_VIOLATION (RFC 9000, Section
// 19.16); otherwise the ID is unregistered and a replacement issued.
func (c *Conn) handleRetireConnIDLocked(fr *quicwire.RetireConnectionIDFrame) {
	c.ensureLocalCIDsLocked()
	if fr.SequenceNumber >= c.nextLocalCIDSeq {
		c.closeWithTransportErrorLocked(quicwire.ProtocolViolation,
			"retired connection ID sequence number never issued")
		return
	}
	idx := -1
	for i, lc := range c.localCIDs {
		if lc.seq == fr.SequenceNumber {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // already retired
	}
	retired := c.localCIDs[idx]
	if c.rxDCID != nil && string(retired.id) == string(c.rxDCID) {
		c.closeWithTransportErrorLocked(quicwire.ProtocolViolation,
			"retired the connection ID the frame arrived on")
		return
	}
	c.localCIDs = append(c.localCIDs[:idx], c.localCIDs[idx+1:]...)
	// Sequence 0 is the route the endpoint tears down itself at close;
	// everything else unregisters now.
	if retired.seq != 0 {
		c.ep.removeConnID(c, retired.id)
	}
	c.issueConnIDsLocked(1)
}
