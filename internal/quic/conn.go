package quic

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
	"quicscan/internal/transportparams"
)

// space indices.
const (
	spaceInitial = iota
	spaceHandshake
	spaceApp
	numSpaces
)

func levelFor(idx int) tls.QUICEncryptionLevel {
	switch idx {
	case spaceInitial:
		return tls.QUICEncryptionLevelInitial
	case spaceHandshake:
		return tls.QUICEncryptionLevelHandshake
	default:
		return tls.QUICEncryptionLevelApplication
	}
}

func spaceFor(level tls.QUICEncryptionLevel) int {
	switch level {
	case tls.QUICEncryptionLevelInitial:
		return spaceInitial
	case tls.QUICEncryptionLevelHandshake:
		return spaceHandshake
	default:
		return spaceApp
	}
}

// pnSpace is the per-encryption-level packet state.
type pnSpace struct {
	sendKeys *quiccrypto.Keys
	recvKeys *quiccrypto.Keys
	suite    uint16

	nextPN    uint64
	largestRx int64 // largest received packet number

	acks   ackManager
	loss   lossState
	crypto cryptoAssembler

	outCrypto    []byte           // pending TLS bytes to send at this level
	cryptoOffset uint64           // send offset of the first outCrypto byte
	outFrames    []quicwire.Frame // pending non-crypto frames

	// Key update state (1-RTT space only, RFC 9001 Section 6).
	sendPhase bool
	nextRecv  *quiccrypto.Keys // pre-derived next-generation read keys
	// updateInitiated marks that this endpoint started the pending
	// update, so the peer's flipped packets must not advance the send
	// keys a second time.
	updateInitiated bool

	dropped bool // keys discarded
}

// init resets a zero pnSpace to its starting sentinels. Spaces are
// embedded by value in Conn — with their ack and loss managers — so a
// connection's per-level state costs no allocations of its own.
func (sp *pnSpace) init() {
	sp.largestRx = -1
	sp.acks.init()
	sp.loss.init()
}

// Conn is a QUIC connection. All exported methods are safe for
// concurrent use.
type Conn struct {
	cfg      *Config
	isClient bool

	remote net.Addr
	// ep is the endpoint (a Transport's or a Listener's) that routes to
	// this connection, and sock the socket of its that the connection
	// sends on. The connection calls ep directly, with c.mu held, to
	// send, to route its issued connection IDs and to retire at close;
	// ep never calls into a Conn while holding a table lock.
	ep   *endpoint
	sock net.PacketConn

	mu     sync.Mutex
	spaces [numSpaces]pnSpace
	tls    *tls.QUICConn

	version  quicwire.Version
	dcid     quicwire.ConnID // destination: peer's current ID
	scid     quicwire.ConnID // our source ID
	origDcid quicwire.ConnID // client's first destination ID (initial keys)

	peerParams     transportparams.Parameters
	havePeerParams bool

	handshakeDone bool
	handshakeCh   chan struct{}
	hsErr         error

	streams  map[uint64]*Stream
	acceptCh chan *Stream
	nextBidi uint64
	nextUni  uint64

	stats       Stats
	trace       *telemetry.ConnTrace // nil-safe; set when Config.Tracer is active
	started     time.Time
	retryToken  []byte
	dcidUpdated bool // client switched to the server-chosen DCID
	peerConnIDs []peerConnID

	// Path validation and migration state (path.go). activeAP is the
	// canonical form of remote; activePub its lock-free mirror for the
	// client endpoint's address-mismatch accounting. rxFromAP/rxDCID/rxDgramLen
	// are per-datagram receive scratch, valid only inside handleDatagram.
	activeAP   netip.AddrPort
	activePub  atomic.Value // netip.AddrPort
	paths      []*pathState
	rxFromAP   netip.AddrPort
	rxDCID     []byte
	rxDgramLen int
	dcidSeq    uint64 // sequence number of the peer CID in c.dcid

	// Client-initiated migration (Migrate): the outstanding challenge
	// rides the normal send queue, so it needs no pathState. migrDone is
	// closed when the peer answers it; until then the connection's timer
	// resends it at migrDeadline, backing off by how often it was sent.
	migrChallenge        [8]byte
	migrChallengePending bool
	migrDone             chan struct{}
	migrDeadline         time.Time
	migrSent             int

	// Connection IDs this endpoint issued (sequence 0 is scid); the
	// endpoint's retire parks every one still listed here.
	localCIDs       []localConnID
	nextLocalCIDSeq uint64

	// Migration quirk knobs, copied from ServerPolicy at accept time:
	// disableMigration ignores peer address changes outright;
	// migrateBreak validates the new path and then closes the
	// connection.
	disableMigration bool
	migrateBreak     bool

	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error

	// timer is the connection's one clock: armTimerLocked points it at
	// the earliest of the deadlines below (and migrDeadline and each
	// path's probe deadline), and onTimer runs whichever are due. A zero
	// deadline is disarmed. idleDeadline is the handshake deadline until
	// the handshake completes and the idle deadline afterwards;
	// ptoDeadline is the next retransmission, ptoCount expirations into
	// the backoff.
	timer        *time.Timer
	idleDeadline time.Time
	ptoDeadline  time.Time
	ptoCount     int

	// ackedCh is closed, and cleared, once nothing ack-eliciting is in
	// flight; Ping waits on it.
	ackedCh chan struct{}

	// Reusable per-connection scratch memory, all guarded by mu, so
	// the steady-state packet path allocates nothing:
	// rawScratch holds the pristine copy of a short-header datagram
	// for stateless-reset checks, keyScratch the decryption trial for
	// key updates, payloadScratch/pktScratch/datagramScratch the
	// outgoing frame, packet, and datagram assembly buffers, and
	// frameScratch the per-packet frame list (loss tracking copies
	// what it retains).
	rawScratch      []byte
	keyScratch      []byte
	payloadScratch  []byte
	pktScratch      []byte
	datagramScratch []byte
	frameScratch    []quicwire.Frame

	// The assembly buffers above start out backed by these inline
	// arrays, sized for the default 1350-byte datagram budget. Scratch
	// slices do not amortize across connections (a scanner builds a
	// fresh Conn per target), so backing them by the Conn's own
	// allocation keeps a one-datagram handshake attempt from paying
	// append-growth allocations. A larger MaxDatagramSize simply grows
	// past the array onto the heap.
	payloadArr  [1536]byte
	pktArr      [1536]byte
	datagramArr [1536]byte
	frameArr    [8]quicwire.Frame

	// hdrScratch is the outgoing long-header scratch for the packer and
	// ackScratch the ACK frame it leads a packet with; rxHdr is the
	// parse target for inbound long headers and frames the decoder of
	// every received payload, whose frame values are valid until its
	// next step (processPayloadLocked). All guarded by mu; none survives
	// the call that fills it.
	hdrScratch quicwire.Header
	ackScratch quicwire.AckFrame
	rxHdr      quicwire.Header
	frames     quicwire.FrameIter

	// onHandshakeDone, used by the server to install post-handshake
	// behaviour (HANDSHAKE_DONE frame).
	onHandshakeDone func()

	// Server-side quirk knobs, copied from ServerPolicy at accept time
	// (immutable afterwards; see that type for semantics).
	keyUpdatePolicy KeyUpdatePolicy
	rejectUnknownTP bool
	idleCloseNotify bool

	// Handshake fast path state (resumption and 0-RTT). earlySendKeys/
	// earlyRecvKeys hold the 0-RTT traffic keys; 0-RTT shares the
	// application packet number space (RFC 9000, Section 12.3), so they
	// are not a fourth pnSpace. sessionCache/sessionKey tie the
	// connection to the Config.SessionCache entry used to store or
	// restore its ticket; rememberedParams are the server transport
	// parameters carried with the ticket, validated against the fresh
	// ones per RFC 9000 §7.4.1 when 0-RTT was sent.
	earlySendKeys  *quiccrypto.Keys
	earlyRecvKeys  *quiccrypto.Keys
	resumed        bool
	earlyOffered   bool
	earlyAccepted  bool
	earlyRejected  bool
	sessionCache   *SessionCache
	sessionKey     string
	earlyReturned  bool // DialEarly handed the conn out before completion
	remembered     transportparams.Parameters
	haveRemembered bool
	ticketCh       chan struct{}
	ticketSeen     bool

	// Server-side resumption quirk knobs (ServerPolicy): decline the
	// 0-RTT offer on resumption, and supply transport parameters
	// lazily so they can be downgraded once resumption is known.
	declineEarlyData bool
	tlsParamsFn      func() []byte

	// forceCloseCode, when non-zero, overrides the CONNECTION_CLOSE
	// error code chosen for TLS failures. The simulated deployments
	// use it to reproduce provider-specific close behaviour such as
	// the generic crypto error 0x128. Guarded by policyMu, not mu: it
	// is written from TLS callbacks that run while mu is held.
	policyMu         sync.Mutex
	forceCloseCode   quicwire.TransportError
	forceCloseReason string
}

// peerConnID is an alternate connection ID issued by the peer via
// NEW_CONNECTION_ID, with its stateless reset token.
type peerConnID struct {
	seq   uint64
	id    quicwire.ConnID
	token [16]byte
}

// PeerConnectionIDs returns the alternate connection IDs the peer has
// issued (RFC 9000, Section 5.1.1).
func (c *Conn) PeerConnectionIDs() []quicwire.ConnID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]quicwire.ConnID, len(c.peerConnIDs))
	for i, p := range c.peerConnIDs {
		out[i] = p.id
	}
	return out
}

// setForcedClose records a policy-mandated close code. Safe to call
// from TLS callbacks.
func (c *Conn) setForcedClose(code quicwire.TransportError, reason string) {
	c.policyMu.Lock()
	c.forceCloseCode = code
	c.forceCloseReason = reason
	c.policyMu.Unlock()
}

func (c *Conn) forcedClose() (quicwire.TransportError, string) {
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	return c.forceCloseCode, c.forceCloseReason
}

func newConn(cfg *Config, isClient bool) *Conn {
	c := &Conn{
		cfg:         cfg,
		isClient:    isClient,
		handshakeCh: make(chan struct{}),
		closed:      make(chan struct{}),
		started:     time.Now(),
	}
	// The streams map and accept channel are created on first use: a
	// scanner connection that never opens a stream (or dies in version
	// negotiation) should not pay for them.
	c.payloadScratch = c.payloadArr[:0]
	c.pktScratch = c.pktArr[:0]
	c.datagramScratch = c.datagramArr[:0]
	c.frameScratch = c.frameArr[:0]
	for i := range c.spaces {
		c.spaces[i].init()
	}
	if isClient {
		c.nextBidi, c.nextUni = 0, 2
	} else {
		c.nextBidi, c.nextUni = 1, 3
	}
	return c
}

// ConnectionState returns the TLS state of the connection.
func (c *Conn) ConnectionState() tls.ConnectionState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tls.ConnectionState()
}

// PeerTransportParameters returns the transport parameters the peer
// sent, and whether they have been received.
func (c *Conn) PeerTransportParameters() (transportparams.Parameters, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerParams, c.havePeerParams
}

// Version returns the negotiated QUIC version.
func (c *Conn) Version() quicwire.Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Stats returns measurement statistics for the connection.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// setupInitialKeys derives Initial packet protection from origDcid.
func (c *Conn) setupInitialKeys() error {
	ik, err := quiccrypto.NewInitialKeys(c.version, c.origDcid)
	if err != nil {
		return err
	}
	sp := &c.spaces[spaceInitial]
	if c.isClient {
		sp.sendKeys, sp.recvKeys = ik.Client, ik.Server
	} else {
		sp.sendKeys, sp.recvKeys = ik.Server, ik.Client
	}
	return nil
}

// drainTLSEvents processes pending crypto/tls events. Must be called
// with c.mu held.
func (c *Conn) drainTLSEvents() error {
	for {
		ev := c.tls.NextEvent()
		switch ev.Kind {
		case tls.QUICNoEvent:
			return nil
		case tls.QUICSetReadSecret:
			keys, err := quiccrypto.NewKeys(ev.Suite, ev.Data)
			if err != nil {
				return err
			}
			if ev.Level == tls.QUICEncryptionLevelEarly {
				// Server side: the client's 0-RTT offer was accepted.
				// Early keys protect application-space packets, so they
				// live beside the 1-RTT keys instead of a fourth space.
				c.earlyRecvKeys = keys
				c.spaces[spaceApp].suite = ev.Suite
				if c.trace != nil {
					c.trace.Event("zero_rtt_accepted")
				}
				continue
			}
			c.spaces[spaceFor(ev.Level)].recvKeys = keys
			c.spaces[spaceFor(ev.Level)].suite = ev.Suite
			if c.trace != nil {
				c.trace.Event("handshake_state",
					"state", "keys_installed", "space", spaceNames[spaceFor(ev.Level)])
			}
		case tls.QUICSetWriteSecret:
			keys, err := quiccrypto.NewKeys(ev.Suite, ev.Data)
			if err != nil {
				return err
			}
			if ev.Level == tls.QUICEncryptionLevelEarly {
				// Client side: early traffic keys are available, so the
				// first flight of application data rides in 0-RTT.
				c.earlySendKeys = keys
				c.earlyOffered = true
				mZeroRTTOffered.Inc()
				if c.trace != nil {
					c.trace.Event("zero_rtt_offered")
				}
				continue
			}
			c.spaces[spaceFor(ev.Level)].sendKeys = keys
		case tls.QUICWriteData:
			sp := &c.spaces[spaceFor(ev.Level)]
			sp.outCrypto = append(sp.outCrypto, ev.Data...)
		case tls.QUICTransportParameters:
			params, err := transportparams.Unmarshal(ev.Data)
			if err != nil {
				return &quicwire.TransportErrorError{Code: quicwire.TransportParameterError, Reason: err.Error()}
			}
			if c.rejectUnknownTP && len(params.Unknown) > 0 {
				// Quirk: RFC 9000 Section 7.4.2 says unknown transport
				// parameters MUST be ignored; this endpoint instead
				// refuses them with the exact 0x8 code on the wire, so
				// the close is sent here rather than surfaced as a TLS
				// failure (which would map to a crypto error).
				c.closeWithTransportErrorLocked(quicwire.TransportParameterError,
					"unsupported transport parameter")
				return nil
			}
			c.peerParams = params
			c.havePeerParams = true
			if c.trace != nil {
				c.trace.Event("transport_parameters_received",
					"max_idle_timeout_ms", params.MaxIdleTimeout,
					"initial_max_data", params.InitialMaxData,
					"max_udp_payload_size", params.MaxUDPPayloadSize)
			}
		case tls.QUICTransportParametersRequired:
			// The server-side quirk hook supplies parameters lazily:
			// QUICTransportParametersRequired fires after the ClientHello
			// (and thus after QUICResumeSession), so the downgrade quirk
			// can key off c.resumed.
			if c.tlsParamsFn != nil {
				c.tls.SetTransportParameters(c.tlsParamsFn())
			} else {
				c.tls.SetTransportParameters(c.cfg.TransportParams.Marshal())
			}
		case tls.QUICHandshakeDone:
			c.completeHandshakeLocked()
		case tls.QUICStoreSession:
			// Client only (requires EnableSessionEvents): a session
			// ticket arrived. Stash the server's transport parameters
			// alongside it — a future resumed dial needs the remembered
			// values both to size its 0-RTT flight and to detect the
			// §7.4.1 downgrade violation.
			if c.havePeerParams {
				ev.SessionState.Extra = append(ev.SessionState.Extra,
					rememberedTPExtra(c.peerParams))
			}
			if err := c.tls.StoreSession(ev.SessionState); err != nil {
				return err
			}
			mTicketsStored.Inc()
			if c.trace != nil {
				c.trace.Event("session_ticket_received",
					"early_data", ev.SessionState.EarlyData)
			}
			if !c.ticketSeen {
				c.ticketSeen = true
				if c.ticketCh != nil {
					close(c.ticketCh)
				}
			}
		case tls.QUICResumeSession:
			c.resumed = true
			if c.isClient {
				mResumedConns.Inc()
				for _, extra := range ev.SessionState.Extra {
					if p, ok := parseRememberedTPExtra(extra); ok {
						c.remembered = p
						c.haveRemembered = true
						break
					}
				}
			} else if c.declineEarlyData {
				// Quirk: issue early-data-capable tickets but refuse the
				// 0-RTT offer on resumption (ticket-no-0rtt profiles).
				ev.SessionState.EarlyData = false
			}
			if c.trace != nil {
				c.trace.Event("session_resumed", "early_data", ev.SessionState.EarlyData)
			}
		case tls.QUICRejectedEarlyData:
			// Client only: the server declined our 0-RTT flight. Drop the
			// early keys and requeue everything sent under them for 1-RTT
			// retransmission (same repair primitive as Retry).
			c.earlyRejected = true
			c.earlySendKeys = nil
			sp := &c.spaces[spaceApp]
			sp.outFrames = sp.loss.takeUnacked(sp.outFrames)
			mZeroRTTRejected.Inc()
			if c.trace != nil {
				c.trace.Event("zero_rtt_rejected")
			}
		}
	}
}

// rememberedTPExtraPrefix tags the SessionState.Extra entry carrying
// the server transport parameters remembered with a session ticket.
// Extra is shared by every layer of the stack, so entries must be
// self-identifying (crypto/tls docs).
const rememberedTPExtraPrefix = "quicscan-tp\x00"

func rememberedTPExtra(p transportparams.Parameters) []byte {
	return append([]byte(rememberedTPExtraPrefix), p.Marshal()...)
}

func parseRememberedTPExtra(extra []byte) (transportparams.Parameters, bool) {
	if len(extra) < len(rememberedTPExtraPrefix) ||
		string(extra[:len(rememberedTPExtraPrefix)]) != rememberedTPExtraPrefix {
		return transportparams.Parameters{}, false
	}
	p, err := transportparams.Unmarshal(extra[len(rememberedTPExtraPrefix):])
	if err != nil {
		return transportparams.Parameters{}, false
	}
	return p, true
}

// tpReduced reports whether fresh reduces any of the limits a 0-RTT
// client relies on below the remembered values — the set RFC 9000
// §7.4.1 forbids a server from shrinking when it accepts early data.
func tpReduced(remembered, fresh transportparams.Parameters) bool {
	return fresh.InitialMaxData < remembered.InitialMaxData ||
		fresh.InitialMaxStreamDataBidiLocal < remembered.InitialMaxStreamDataBidiLocal ||
		fresh.InitialMaxStreamDataBidiRemote < remembered.InitialMaxStreamDataBidiRemote ||
		fresh.InitialMaxStreamDataUni < remembered.InitialMaxStreamDataUni ||
		fresh.InitialMaxStreamsBidi < remembered.InitialMaxStreamsBidi ||
		fresh.InitialMaxStreamsUni < remembered.InitialMaxStreamsUni
}

func (c *Conn) completeHandshakeLocked() {
	if c.handshakeDone {
		return
	}
	if c.isClient {
		// QUICResumeSession marked the resumption attempt; DidResume is
		// the server's authoritative answer once the handshake settles.
		c.resumed = c.tls.ConnectionState().DidResume
	}
	// RFC 9000 §7.4.1: a server that accepted early data must not
	// reduce the remembered limits; a client that detects a reduction
	// closes with PROTOCOL_VIOLATION. The offending ticket is
	// invalidated so the next dial takes the full handshake.
	if c.isClient && c.earlyOffered && !c.earlyRejected &&
		c.haveRemembered && c.havePeerParams && tpReduced(c.remembered, c.peerParams) {
		mResumptionDowngrade.Inc()
		if c.trace != nil {
			c.trace.Event("resumption_tp_downgrade",
				"remembered_max_data", c.remembered.InitialMaxData,
				"fresh_max_data", c.peerParams.InitialMaxData)
		}
		if c.sessionCache != nil {
			c.sessionCache.invalidate(c.sessionKey)
		}
		c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{
			ErrorCode:    uint64(quicwire.ProtocolViolation),
			ReasonPhrase: "transport parameters reduced on resumption"})
		if c.hsErr == nil {
			c.hsErr = ErrParameterDowngrade
		}
		c.closeLocked(ErrParameterDowngrade)
		return
	}
	if c.isClient && c.earlyOffered && !c.earlyRejected {
		c.earlyAccepted = true
		mZeroRTTAccepted.Inc()
		if c.trace != nil {
			c.trace.Event("zero_rtt_accepted")
		}
	}
	// Early-returned dials were not counted by Transport.dial; their
	// handshake outcome lands here instead.
	if c.earlyReturned {
		mHandshakeSuccess.Inc()
	}
	// Early keys never outlive the handshake (RFC 9001, Section 4.9.3).
	c.earlySendKeys = nil
	c.earlyRecvKeys = nil
	c.handshakeDone = true
	c.stats.HandshakeDuration = time.Since(c.started)
	mHandshakeMs.Observe(float64(c.stats.HandshakeDuration.Microseconds()) / 1000)
	if c.trace != nil {
		c.trace.Event("handshake_state", "state", "done",
			"duration_ms", float64(c.stats.HandshakeDuration.Microseconds())/1000)
	}
	c.armIdleTimerLocked()
	// A client that finished TLS has 1-RTT keys and never sends at the
	// Initial level again (RFC 9001, Section 4.9.1).
	if c.isClient {
		c.spaces[spaceInitial].dropped = true
	}
	if c.onHandshakeDone != nil {
		c.onHandshakeDone()
	}
	close(c.handshakeCh)
}

// HandshakeComplete waits for the handshake to finish. The deadline is
// the connection's own (Config.HandshakeTimeout from the dial, or from
// the first Initial on a server), enforced whether or not anyone waits
// here: ErrHandshakeTimeout means that deadline or the PTO budget ran
// out. ctx ending aborts the connection, and the call then returns
// ctx's error.
func (c *Conn) HandshakeComplete(ctx context.Context) error {
	select {
	case <-c.handshakeCh:
		return nil
	case <-c.closed:
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.hsErr != nil {
			return c.hsErr
		}
		return c.closeErr
	case <-ctx.Done():
		c.abort(ctx.Err())
		return ctx.Err()
	}
}

// idleTimeoutLocked resolves the effective idle timeout: the minimum
// of the local configuration and the peer's max_idle_timeout transport
// parameter (RFC 9000, Section 10.1).
func (c *Conn) idleTimeoutLocked() time.Duration {
	d := c.cfg.MaxIdleTimeout
	if c.havePeerParams && c.peerParams.MaxIdleTimeout > 0 {
		peer := time.Duration(c.peerParams.MaxIdleTimeout) * time.Millisecond
		if peer < d {
			d = peer
		}
	}
	return d
}

// armIdleTimerLocked moves the idle deadline to the idle period from
// now; a period <= 0 disarms it.
func (c *Conn) armIdleTimerLocked() {
	var at time.Time
	if d := c.idleTimeoutLocked(); d > 0 {
		at = time.Now().Add(d)
	}
	c.setIdleDeadlineLocked(at)
}

// setIdleDeadlineLocked sets the handshake/idle deadline (zero
// disarms it) and re-arms the timer.
func (c *Conn) setIdleDeadlineLocked(at time.Time) {
	c.idleDeadline = at
	c.armTimerLocked()
}

// armTimerLocked points the connection's one timer at the earliest
// armed deadline, or stops it when none is armed. Re-arming is a Reset
// of the same timer, never a new one.
func (c *Conn) armTimerLocked() {
	if c.isClosed() {
		return
	}
	next := earlier(c.idleDeadline, c.ptoDeadline)
	next = earlier(next, c.migrDeadline)
	for _, p := range c.paths {
		next = earlier(next, p.deadline)
	}
	switch {
	case next.IsZero():
		if c.timer != nil {
			c.timer.Stop()
		}
	case c.timer == nil:
		c.timer = time.AfterFunc(time.Until(next), c.onTimer)
	default:
		c.timer.Reset(time.Until(next))
	}
}

// earlier returns the earlier of two deadlines, where zero is unarmed.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// due reports whether the armed deadline at has passed by now.
func due(at, now time.Time) bool { return !at.IsZero() && !now.Before(at) }

// onTimer runs every deadline that is due, in a fixed order, and
// re-arms the timer to the earliest one left. The handshake/idle
// deadline runs first, since a dead connection retransmits nothing;
// then the PTO; then path probes and the migration challenge. There is
// one stale-fire rule for all of them: a deadline that moved after the
// timer fired is simply not due (Stop and Reset cannot recall a
// callback that has already started and is waiting for mu), so a fire
// that finds nothing due only re-arms.
func (c *Conn) onTimer() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isClosed() {
		return
	}
	now := time.Now()
	if due(c.idleDeadline, now) {
		c.onIdleDeadlineLocked()
		return
	}
	if due(c.ptoDeadline, now) {
		c.ptoDeadline = time.Time{}
		c.onPTOLocked()
	}
	for _, p := range c.paths {
		if due(p.deadline, now) && !c.isClosed() {
			p.deadline = time.Time{}
			c.onPathTimeoutLocked(p, now)
		}
	}
	if due(c.migrDeadline, now) && !c.isClosed() {
		c.sendMigrChallengeLocked(now)
	}
	c.armTimerLocked()
}

// onIdleDeadlineLocked closes the connection at its handshake/idle
// deadline. Before the handshake completes that is the handshake
// deadline; afterwards it is the idle period, which RFC 9000 Section
// 10.1 ends silently — the IdleCloseNotify quirk announces the
// teardown with CONNECTION_CLOSE(NO_ERROR) first.
func (c *Conn) onIdleDeadlineLocked() {
	if !c.handshakeDone {
		if c.hsErr == nil {
			c.hsErr = ErrHandshakeTimeout
		}
		c.closeLocked(ErrHandshakeTimeout)
		return
	}
	if c.idleCloseNotify {
		c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{
			ErrorCode: uint64(quicwire.NoError), ReasonPhrase: "idle timeout"})
	}
	c.closeLocked(ErrIdleTimeout)
}

// isClosed reports whether the connection has closed.
func (c *Conn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// handleDatagram processes one received UDP payload, which may contain
// multiple coalesced QUIC packets. data is owned by the caller (a pump
// passes its pooled buffer, a pushing socket its own copy) and is only
// valid for the duration of the call: all processing happens
// synchronously under c.mu, and every value retained past return —
// crypto stream data, stream segments, connection IDs, tokens — is
// copied out first.
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
	c.rxDgramLen = len(data)
	c.stats.BytesReceived += len(data)
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
			c.closeLocked(ErrStatelessReset)
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
			c.closeLocked(ErrStatelessReset)
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
	switch c.keyUpdatePolicy {
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

// UpdateKeys initiates a key update (RFC 9001, Section 6): subsequent
// 1-RTT packets use the next key generation and a flipped key phase
// bit. Only valid after the handshake completes.
func (c *Conn) UpdateKeys() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.handshakeDone {
		return errors.New("quic: key update before handshake completion")
	}
	sp := &c.spaces[spaceApp]
	nextSend, err := sp.sendKeys.Next()
	if err != nil {
		return err
	}
	nextRecv, err := sp.recvKeys.Next()
	if err != nil {
		return err
	}
	sp.sendKeys = nextSend
	sp.sendPhase = !sp.sendPhase
	sp.nextRecv = nextRecv
	sp.updateInitiated = true
	return nil
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
	mVNReceived.Inc()
	for _, v := range serverVersions {
		vnVersionCounter(v.String()).Inc()
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
	mRetries.Inc()
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
		c.handleStreamFrameLocked(fr)
	case *quicwire.ResetStreamFrame:
		if s, ok := c.streams[fr.StreamID]; ok {
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

func (c *Conn) handleStreamFrameLocked(fr *quicwire.StreamFrame) {
	s, ok := c.streams[fr.StreamID]
	if !ok {
		_, clientInit := streamDirOf(fr.StreamID)
		if clientInit == c.isClient {
			// A frame for a stream we should have initiated but did not.
			c.closeWithTransportErrorLocked(quicwire.StreamStateError,
				fmt.Sprintf("stream %d not opened", fr.StreamID))
			return
		}
		s = newStream(fr.StreamID, c)
		if c.streams == nil {
			c.streams = make(map[uint64]*Stream)
		}
		c.streams[fr.StreamID] = s
		if c.acceptCh == nil {
			c.acceptCh = make(chan *Stream, 16)
		}
		select {
		case c.acceptCh <- s:
		default:
		}
	}
	s.handleData(fr.Offset, fr.Data, fr.Fin)
}

// OpenStream opens a new bidirectional stream.
func (c *Conn) OpenStream() (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isClosed() {
		return nil, c.closeErr
	}
	id := c.nextBidi
	c.nextBidi += 4
	s := newStream(id, c)
	if c.streams == nil {
		c.streams = make(map[uint64]*Stream)
	}
	c.streams[id] = s
	return s, nil
}

// OpenUniStream opens a new unidirectional stream.
func (c *Conn) OpenUniStream() (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isClosed() {
		return nil, c.closeErr
	}
	id := c.nextUni
	c.nextUni += 4
	s := newStream(id, c)
	if c.streams == nil {
		c.streams = make(map[uint64]*Stream)
	}
	c.streams[id] = s
	return s, nil
}

// AcceptStream returns the next peer-initiated stream (bidirectional
// or unidirectional).
func (c *Conn) AcceptStream(ctx context.Context) (*Stream, error) {
	// The accept channel is lazily created (see newConn); pin it under
	// the lock so this select and the delivery site agree on one
	// channel.
	c.mu.Lock()
	if c.acceptCh == nil {
		c.acceptCh = make(chan *Stream, 16)
	}
	acceptCh := c.acceptCh
	c.mu.Unlock()
	select {
	case s := <-acceptCh:
		return s, nil
	case <-c.closed:
		return nil, c.closeErr
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// queueStreamData appends stream data (and/or a FIN) to the send
// queue.
func (c *Conn) queueStreamData(id uint64, data []byte, fin bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isClosed() {
		return c.closeErr
	}
	sp := &c.spaces[spaceApp]
	var offset uint64
	if s, ok := c.streams[id]; ok {
		s.mu.Lock()
		offset = s.sendOffset()
		s.sendOff += uint64(len(data))
		s.mu.Unlock()
	}
	// The frame owns a copy of data until it is acknowledged.
	sp.outFrames = append(sp.outFrames, &quicwire.StreamFrame{
		StreamID: id, Offset: offset, Data: append([]byte(nil), data...), Fin: fin,
	})
	c.sendPendingLocked()
	return nil
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
// CONNECTION_CLOSE crypto error frame (RFC 9001, Section 4.8).
func (c *Conn) closeWithTLSErrorLocked(err error) {
	code := quicwire.CryptoError(80) // internal_error
	var alert tls.AlertError
	if errors.As(err, &alert) {
		code = quicwire.CryptoError(uint8(alert))
	}
	forcedCode, forcedReason := c.forcedClose()
	if forcedCode != 0 {
		code = forcedCode
	}
	c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{ErrorCode: uint64(code), ReasonPhrase: forcedReason})
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

func (c *Conn) closeLocked(err error) {
	c.closeOnce.Do(func() {
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
		for _, s := range c.streams {
			s.connClosed(err)
		}
		if c.tls != nil {
			c.tls.Close()
		}
		c.ep.retire(c)
	})
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

// earlyReturn reports whether DialEarly handed this connection out
// before handshake completion.
func (c *Conn) earlyReturn() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.earlyReturned
}

// Resumed reports whether the connection's TLS handshake resumed a
// cached session (abbreviated PSK handshake, no certificate exchange).
func (c *Conn) Resumed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumed
}

// EarlyDataOffered reports whether this client sent 0-RTT early data.
func (c *Conn) EarlyDataOffered() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.earlyOffered
}

// EarlyDataAccepted reports whether the server accepted the client's
// 0-RTT flight. Only meaningful once the handshake has completed.
func (c *Conn) EarlyDataAccepted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.earlyAccepted
}

// EarlyDataRejected reports whether the server declined the client's
// 0-RTT flight; the rejected data has been requeued for 1-RTT.
func (c *Conn) EarlyDataRejected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.earlyRejected
}

// SessionTicketReceived returns a channel closed once the server has
// issued a TLS session ticket (stored in the dial's SessionCache).
// The resumption prober waits on it to decide between the "issues
// tickets" and "never issues tickets" classes.
func (c *Conn) SessionTicketReceived() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ticketCh == nil {
		c.ticketCh = make(chan struct{})
		if c.ticketSeen {
			close(c.ticketCh)
		}
	}
	return c.ticketCh
}

// Ping sends a PING frame and blocks until it (and everything else in
// flight) is acknowledged, the connection dies, or ctx expires. The
// fingerprint prober uses it to force a round trip after a key update.
func (c *Conn) Ping(ctx context.Context) error {
	c.mu.Lock()
	if !c.handshakeDone {
		c.mu.Unlock()
		return errors.New("quic: ping before handshake completion")
	}
	if c.isClosed() {
		err := c.closeErr
		c.mu.Unlock()
		return err
	}
	sp := &c.spaces[spaceApp]
	sp.outFrames = append(sp.outFrames, &quicwire.PingFrame{})
	c.sendPendingLocked()
	if c.ackedCh == nil {
		c.ackedCh = make(chan struct{})
	}
	acked := c.ackedCh
	c.mu.Unlock()

	select {
	case <-acked:
		return nil
	case <-c.closed:
		return c.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// armPTOLocked moves the retransmission deadline to the current
// backoff interval from now. It is disarmed when retransmission is off
// (MaxPTOs < 0) and, after the handshake, while nothing awaits an ACK.
func (c *Conn) armPTOLocked() {
	c.ptoDeadline = time.Time{}
	if c.cfg.MaxPTOs >= 0 && (!c.handshakeDone || c.anyUnackedLocked()) {
		c.ptoDeadline = time.Now().Add(c.backoff(c.ptoCount))
	}
	c.armTimerLocked()
}

// backoff is the retransmission interval after n expirations: PTO
// doubled n times, capped at MaxPTOBackoff. Path probes and the
// migration challenge back off on the same schedule.
func (c *Conn) backoff(n int) time.Duration {
	d := c.cfg.PTO << min(n, 16)
	if c.cfg.MaxPTOBackoff > 0 && d > c.cfg.MaxPTOBackoff {
		d = c.cfg.MaxPTOBackoff
	}
	return d
}

func (c *Conn) anyUnackedLocked() bool {
	for i := range c.spaces {
		// A dropped space's keys are gone on both sides: its
		// stragglers can never be acknowledged and must not count.
		if c.spaces[i].dropped {
			continue
		}
		if len(c.spaces[i].loss.sent) > 0 {
			return true
		}
	}
	return false
}

// onPTOLocked runs at the retransmission deadline: it re-sends every
// unacknowledged frame and backs off, or gives up once MaxPTOs
// expirations in a row went unanswered.
func (c *Conn) onPTOLocked() {
	if c.ptoCount >= c.cfg.MaxPTOs {
		// Retransmission budget exhausted. A handshake that could not
		// be repaired in MaxPTOs rounds is dead: fail fast with the
		// timeout outcome instead of waiting out the deadline. After
		// the handshake the idle deadline signals failure instead.
		if !c.handshakeDone {
			if c.hsErr == nil {
				c.hsErr = ErrHandshakeTimeout
			}
			c.closeLocked(ErrHandshakeTimeout)
		}
		return
	}
	c.ptoCount++
	mPTOFired.Inc()
	if c.trace != nil {
		c.trace.Event("pto_fired", "count", c.ptoCount)
	}
	resent := false
	for i := range c.spaces {
		sp := &c.spaces[i]
		if sp.dropped || sp.sendKeys == nil {
			continue
		}
		if len(sp.loss.frames) > 0 {
			sp.outFrames = sp.loss.takeUnacked(sp.outFrames)
			resent = true
		}
	}
	if resent {
		c.stats.Retransmits++
		mRetransmits.Inc()
		if c.trace != nil {
			c.trace.Event("retransmit", "pto_count", c.ptoCount)
		}
		c.sendPendingLocked()
	} else {
		c.armPTOLocked()
	}
}
