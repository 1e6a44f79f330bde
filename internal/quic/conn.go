package quic

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"net/netip"
	"sync"
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

// pnSpace is the per-encryption-level packet state. Guarded by c.mu.
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
//
// Each block of fields opens by naming its owner: the lock that guards
// it, or why it needs none. TestEveryFieldHasAnOwner holds every field
// to that, and DESIGN.md section 5 states the rule.
type Conn struct {
	// Set once before publication: written while the connection is set
	// up, before it sends its first packet or is handed to a caller, and
	// only read afterwards. ep is the endpoint (a Transport's or a
	// Listener's) that routes to this connection, and sock the socket of
	// its that the connection sends on. The connection calls ep
	// directly, with c.mu held, to send, to route its issued connection
	// IDs and to retire at close; ep never calls into a Conn while
	// holding a table lock. handshakeCh and closed are closed, with mu
	// held, when the handshake completes and when the connection dies.
	// Publication is the release of mu that ends set-up: a dial and an
	// accept both register the connection's routes with mu held, so a
	// packet or a Close that reaches it through a route takes mu first.
	cfg         *Config
	isClient    bool
	ep          *endpoint
	sock        net.PacketConn
	version     quicwire.Version
	scid        quicwire.ConnID      // our source ID
	trace       *telemetry.ConnTrace // nil-safe; set when Config.Tracer is active
	started     time.Time
	handshakeCh chan struct{}
	closed      chan struct{}

	// mu is the connection's one lock. Atomic, as a lock is.
	mu sync.Mutex

	// Guarded by c.mu: read and written only while mu is held. closeErr
	// is written before closed is closed, so a caller that has seen
	// closed may read it without the lock.
	remote         net.Addr
	spaces         [numSpaces]pnSpace
	tls            *tls.QUICConn
	dcid           quicwire.ConnID // destination: peer's current ID
	origDcid       quicwire.ConnID // client's first destination ID (initial keys)
	peerParams     transportparams.Parameters
	havePeerParams bool
	handshakeDone  bool
	hsErr          error
	closeErr       error
	streamSet
	stats       Stats
	retryToken  []byte
	dcidUpdated bool // client switched to the server-chosen DCID
	peerConnIDs []peerConnID

	// Guarded by c.mu: path validation and migration state (path.go).
	// activeAP is the canonical form of remote. rxFromAP/rxDCID/rxDgramLen
	// are per-datagram receive scratch, valid only inside handleDatagram.
	activeAP   netip.AddrPort
	paths      []*pathState
	rxFromAP   netip.AddrPort
	rxDCID     []byte
	rxDgramLen int
	dcidSeq    uint64 // sequence number of the peer CID in c.dcid

	// Guarded by c.mu: connection IDs this endpoint issued (sequence 0
	// is scid); the endpoint's retire parks every one still listed here.
	localCIDs       []localConnID
	nextLocalCIDSeq uint64

	// Guarded by c.mu. timer is the connection's one clock:
	// armTimerLocked points it at the earliest of the deadlines below
	// (and each path's probe deadline), and onTimer runs whichever are
	// due. A zero deadline is disarmed. idleDeadline is the handshake
	// deadline until the handshake completes and the idle deadline
	// afterwards; ptoDeadline is the next retransmission, ptoCount
	// expirations into the backoff. ackedCh is closed, and cleared, once
	// nothing ack-eliciting is in flight; Ping waits on it.
	timer        *time.Timer
	idleDeadline time.Time
	ptoDeadline  time.Time
	ptoCount     int
	ackedCh      chan struct{}

	// Guarded by c.mu: reusable per-connection scratch memory, so the
	// steady-state packet path allocates nothing: rawScratch holds the
	// pristine copy of a short-header datagram for stateless-reset
	// checks, keyScratch the decryption trial for key updates, and
	// frameScratch the per-packet frame list (loss tracking copies what
	// it retains), backed at first by frameArr. Outgoing packets need no
	// scratch here: they are built in place in a send buffer leased for
	// the length of one send (bufpool.go).
	rawScratch   []byte
	keyScratch   []byte
	frameScratch []quicwire.Frame
	frameArr     [8]quicwire.Frame

	// Guarded by c.mu. hdrScratch is the outgoing long-header scratch
	// for the packer and ackScratch the ACK frame it leads a packet with;
	// rxHdr is the parse target for inbound long headers and frames the
	// decoder of every received payload, whose frame values are valid
	// until its next step (processPayloadLocked). None survives the call
	// that fills it.
	hdrScratch quicwire.Header
	ackScratch quicwire.AckFrame
	rxHdr      quicwire.Header
	frames     quicwire.FrameIter

	// Guarded by c.mu: handshake fast path state (resumption and 0-RTT).
	// earlySendKeys/earlyRecvKeys hold the 0-RTT traffic keys; 0-RTT
	// shares the application packet number space (RFC 9000, Section
	// 12.3), so they are not a fourth pnSpace. rememberedParams are the
	// server transport parameters carried with the ticket, validated
	// against the fresh ones per RFC 9000 §7.4.1 when 0-RTT was sent.
	earlySendKeys  *quiccrypto.Keys
	earlyRecvKeys  *quiccrypto.Keys
	resumed        bool
	earlyOffered   bool
	earlyAccepted  bool
	earlyRejected  bool
	earlyReturned  bool // DialEarly handed the conn out before completion
	remembered     transportparams.Parameters
	haveRemembered bool
	ticketCh       chan struct{}
	ticketSeen     bool

	// Set once before publication. sessionCache/sessionKey tie the
	// connection to the Config.SessionCache entry used to store or
	// restore its ticket; tlsParamsFn supplies a server's transport
	// parameters lazily so they can be downgraded once resumption is
	// known. A server's quirks are not copied here: policy reads them
	// from its Listener.
	sessionCache *SessionCache
	sessionKey   string
	tlsParamsFn  func() []byte
}

// peerConnID is an alternate connection ID issued by the peer via
// NEW_CONNECTION_ID, with its stateless reset token.
type peerConnID struct {
	seq   uint64
	id    quicwire.ConnID
	token [16]byte
}

// clientPolicy is the ServerPolicy of a connection with no Listener: a
// client's, which has no quirks.
var clientPolicy ServerPolicy

// policy returns the ServerPolicy of the Listener that accepted c, read
// in place, or clientPolicy on a client.
func (c *Conn) policy() *ServerPolicy {
	if c.ep.srv == nil {
		return &clientPolicy
	}
	return &c.ep.srv.policy
}

func newConn(cfg *Config, isClient bool) *Conn {
	c := &Conn{
		cfg:         cfg,
		isClient:    isClient,
		handshakeCh: make(chan struct{}),
		closed:      make(chan struct{}),
		started:     time.Now(),
	}
	c.frameScratch = c.frameArr[:0]
	for i := range c.spaces {
		c.spaces[i].init()
	}
	if !isClient {
		c.streamSet.local = 1
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

// OpenStream opens a new bidirectional stream.
func (c *Conn) OpenStream() (*Stream, error) { return c.openStream(false) }

// OpenUniStream opens a new unidirectional stream.
func (c *Conn) OpenUniStream() (*Stream, error) { return c.openStream(true) }

func (c *Conn) openStream(uni bool) (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isClosed() {
		return nil, c.closeErr
	}
	return c.streamSet.open(c, uni), nil
}

// AcceptStream returns the next peer-initiated stream (bidirectional
// or unidirectional).
func (c *Conn) AcceptStream(ctx context.Context) (*Stream, error) {
	// The accept queue is made on first use; pin it under the lock so
	// this select and the delivery site agree on one channel.
	c.mu.Lock()
	c.streamSet.init()
	accept := c.streamSet.accept
	c.mu.Unlock()
	select {
	case s := <-accept:
		return s, nil
	case <-c.closed:
		return nil, c.closeErr
	case <-ctx.Done():
		return nil, ctx.Err()
	}
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
