package quic

import (
	"context"
	"crypto/rand"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"quicscan/internal/netbatch"
	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
	"quicscan/internal/transportparams"
)

// ServerPolicy lets a deployment control its externally observable
// scanning behaviour. The simulated Internet uses it to reproduce the
// provider quirks the paper documents: servers that ignore the forced
// version negotiation, servers whose advertised and accepted version
// sets disagree (Google's IETF QUIC roll-out), servers that silently
// drop Initials (Akamai/Fastly without SNI), and servers that reject
// handshakes with the generic crypto error 0x128 (Cloudflare without
// SNI).
type ServerPolicy struct {
	// AdvertisedVersions is the list sent in Version Negotiation
	// packets. nil disables VN responses entirely (such deployments
	// are invisible to the ZMap module but may still be reachable
	// statefully).
	AdvertisedVersions []quicwire.Version

	// AcceptVersions is the set the server actually completes
	// handshakes with. If empty, the listener Config.Versions apply.
	// A version in AdvertisedVersions but not here produces the
	// paper's "version mismatch" behaviour.
	AcceptVersions []quicwire.Version

	// RespondToUnpadded makes the server answer forced version
	// negotiation even for datagrams below 1200 bytes, violating
	// RFC 9000. The paper found 11.3% of addresses doing this, 95.4%
	// in a single AS (Section 3.1).
	RespondToUnpadded bool

	// DropAllInitials silently discards every Initial packet,
	// producing the "Timeout" outcome for stateful scans while still
	// (optionally) answering version negotiation.
	DropAllInitials bool

	// RequireSNI, when non-nil, is consulted with the ClientHello SNI
	// value; returning false fails the handshake with CloseCode.
	RequireSNI func(sni string) bool

	// CloseCode and CloseReason configure the CONNECTION_CLOSE sent
	// on policy rejections (default: crypto error 0x128 with an
	// implementation-specific reason phrase, as observed by the
	// paper).
	CloseCode   quicwire.TransportError
	CloseReason string

	// UseRetry performs address validation: token-less Initials are
	// answered with a Retry packet (RFC 9000, Section 8.1).
	UseRetry bool

	// The remaining knobs model implementation quirks: small, legal (or
	// borderline) behavioural deviations that differ between QUIC
	// stacks. The fingerprint scenario engine (internal/fingerprint)
	// classifies implementations by observing them, so each simulated
	// provider profile enables a distinct combination.

	// GreaseVN appends GreaseVersion to Version Negotiation responses,
	// but only when the client offered a reserved 0x?a?a?a?a version
	// other than ForcedNegotiationVersion. The standard ZMap probe
	// (which always offers ForcedNegotiationVersion) therefore sees the
	// plain advertised set, keeping the discovery figures calibrated,
	// while the fingerprint prober's distinct reserved version elicits
	// the grease entry.
	GreaseVN bool

	// InvalidTokenClose answers an Initial carrying an invalid or
	// expired Retry token with an immediate INVALID_TOKEN (0x0b)
	// CONNECTION_CLOSE instead of silently dropping it (RFC 9000,
	// Section 8.1.3 permits either).
	InvalidTokenClose bool

	// AcceptAnyToken skips Retry token validation entirely: any
	// non-empty token passes. A lax address validator.
	AcceptAnyToken bool

	// KeyUpdate selects how server connections respond to a
	// client-initiated key update (RFC 9001, Section 6).
	KeyUpdate KeyUpdatePolicy

	// RejectUnknownTP closes connections whose client advertised any
	// unknown (e.g. GREASE) transport parameter with
	// TRANSPORT_PARAMETER_ERROR (0x8). RFC 9000 Section 7.4.2 requires
	// ignoring unknown parameters, but early stacks got this wrong.
	RejectUnknownTP bool

	// DisableStatelessReset suppresses stateless resets for orphan
	// short-header datagrams; the deployment stays silent instead.
	DisableStatelessReset bool

	// IdleCloseNotify sends CONNECTION_CLOSE(NO_ERROR) when the idle
	// timer fires instead of tearing the connection down silently.
	IdleCloseNotify bool

	// DisableMigration models a deployment that does not support
	// connection migration at all: peer address changes after the
	// handshake are ignored (no PATH_CHALLENGE, traffic keeps targeting
	// the old address) and off-path PATH_CHALLENGEs go unanswered.
	// Deployments pairing this with DisableActiveMigration in their
	// transport parameters are honest; pairing it with a permissive
	// parameter set reproduces load balancers that advertise support
	// they do not have.
	DisableMigration bool

	// MigrationValidateBreak models the half-broken middle ground the
	// migration scan mode exists to find: the server performs path
	// validation correctly (PATH_CHALLENGE out, PATH_RESPONSE verified)
	// and then closes the connection the moment it would switch to the
	// new path.
	MigrationValidateBreak bool

	// DisableSessionTickets suppresses the NewSessionTicket normally
	// sent after the handshake, so clients can never resume. Models
	// deployments that terminate TLS on stateless frontends without a
	// shared ticket key.
	DisableSessionTickets bool

	// Decline0RTTOnResume issues tickets with early_data enabled but
	// declines the early data on every resumed handshake, forcing the
	// client to replay its 0-RTT flight in 1-RTT. Models deployments
	// that resume sessions but keep 0-RTT switched off (the common
	// anti-replay-cautious configuration).
	Decline0RTTOnResume bool

	// ResumptionTPDowngrade advertises halved flow-control limits on
	// resumed handshakes only. RFC 9000, Section 7.4.1 forbids reducing
	// remembered limits while accepting 0-RTT; conforming clients must
	// close with PROTOCOL_VIOLATION. Models frontends whose resumption
	// path reads a different (staler, smaller) configuration than the
	// full-handshake path.
	ResumptionTPDowngrade bool
}

// KeyUpdatePolicy selects a server's reaction to a peer-initiated key
// update (RFC 9001, Section 6).
type KeyUpdatePolicy int

const (
	// KeyUpdateAccept completes the update normally (the default).
	KeyUpdateAccept KeyUpdatePolicy = iota
	// KeyUpdateRefuse closes the connection with KEY_UPDATE_ERROR
	// (0x0e) when the peer flips the key phase.
	KeyUpdateRefuse
	// KeyUpdateIgnore silently drops packets protected with the next
	// key generation, as if they never decrypted.
	KeyUpdateIgnore
)

// Listener accepts QUIC connections on a PacketConn, demultiplexing by
// connection ID. Its state is proportional to the connections open,
// not the connections ever served: a closing connection retires its
// routes (see retire) and leaves only short-lived tombstones behind.
type Listener struct {
	cfg    *Config
	policy ServerPolicy
	pconn  net.PacketConn
	// tlsBase is the shared per-listener TLS config. Sharing matters
	// for session resumption: ticket keys are pinned once here, so a
	// ticket minted on one connection decrypts on every later one
	// (per-connection clones would each auto-generate their own keys).
	tlsBase *tls.Config

	// routes maps every server connection ID (and each client's original
	// destination ID) to its connection, and keeps the tombstones of
	// closed ones.
	routes routeTable

	mu     sync.Mutex
	closed bool
	retry  retryMinter
	reset  resetKeys

	acceptCh chan *Conn
	done     chan struct{}

	// The pushed datagram's parse scratch and source address
	// (serveDatagram): the socket makes one call at a time.
	hdr  quicwire.Header
	from net.UDPAddr
}

// pushConn is a socket that calls its owner with each datagram instead
// of being read: simnet's, where a server needs neither a goroutine nor
// a read buffer. Serve's contract is simnet.PacketConn.Serve's.
type pushConn interface {
	Serve(handler func(data []byte, from netip.AddrPort), onClose func()) error
}

// Listen starts a QUIC server on pconn.
func Listen(pconn net.PacketConn, config *Config, policy ServerPolicy) (*Listener, error) {
	if config == nil || config.TLS == nil {
		return nil, errors.New("quic: Listen requires a TLS config with certificates")
	}
	cfg := config.clone()
	if cfg.TransportParams.InitialMaxStreamsBidi == 0 && cfg.TransportParams.InitialMaxData == 0 {
		cfg.TransportParams = DefaultServerParams()
	}
	base := forTLS13(cfg.TLS)
	if base == cfg.TLS {
		base = base.Clone() // never mutate the caller's config
	}
	var ticketKey [32]byte
	if _, err := rand.Read(ticketKey[:]); err != nil {
		return nil, err
	}
	base.SetSessionTicketKeys([][32]byte{ticketKey})
	l := &Listener{
		cfg:      cfg,
		policy:   policy,
		pconn:    pconn,
		tlsBase:  base,
		acceptCh: make(chan *Conn, 64),
		done:     make(chan struct{}),
	}
	if ps, ok := pconn.(pushConn); ok {
		if err := ps.Serve(l.serveDatagram, func() { l.Close() }); err != nil {
			return nil, err
		}
		return l, nil
	}
	go l.readLoop()
	return l, nil
}

// DefaultServerParams mirrors a common web deployment configuration.
func DefaultServerParams() transportparams.Parameters {
	p := transportparams.Default()
	p.MaxIdleTimeout = 30000
	p.InitialMaxData = 1 << 21
	p.InitialMaxStreamDataBidiLocal = 1 << 19
	p.InitialMaxStreamDataBidiRemote = 1 << 19
	p.InitialMaxStreamDataUni = 1 << 19
	p.InitialMaxStreamsBidi = 100
	p.InitialMaxStreamsUni = 3
	return p
}

// Accept returns the next handshaking connection. The handshake may
// still be in progress; use Conn.waitHandshake via AcceptEstablished
// for completed ones.
func (l *Listener) Accept(ctx context.Context) (*Conn, error) {
	select {
	case c := <-l.acceptCh:
		return c, nil
	case <-l.done:
		return nil, ErrConnectionClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr { return l.pconn.LocalAddr() }

// Close stops the listener and closes all connections.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	conns, _ := l.routes.close()
	for _, c := range conns {
		c.abort(ErrConnectionClosed)
	}
	return l.pconn.Close()
}

// readLoop pumps a socket that cannot push (a kernel socket), a
// datagram at a time into one leased read buffer. A failing socket
// tears the listener down, as closing a pushing one does; when Close
// ended the loop this Close is a no-op.
func (l *Listener) readLoop() {
	readDatagrams(l.pconn, 1, 0, l.handleDatagram)
	l.Close()
}

// serveDatagram is a pushing socket's handler: handleDatagram on the
// listener's own scratch, which the socket's one-call-at-a-time
// contract keeps to one user, as readLoop's is.
func (l *Listener) serveDatagram(data []byte, from netip.AddrPort) {
	netbatch.SetUDPAddr(&l.from, from)
	l.handleDatagram(&l.hdr, data, &l.from)
}

// handleDatagram routes a datagram to an existing connection or
// treats it as a new connection attempt. data, from and the header
// scratch hdr are only valid for the duration of the call; everything
// retained (the peer address, connection IDs, tokens, crypto data) is
// copied out.
func (l *Listener) handleDatagram(hdr *quicwire.Header, data []byte, from net.Addr) {
	if len(data) == 0 {
		return
	}
	long := quicwire.IsLongHeader(data[0])
	var dcid quicwire.ConnID
	if long {
		if _, err := quicwire.ParseLongHeaderInto(hdr, data); err != nil {
			mListenerDropNoRoute.Inc()
			return
		}
		dcid = hdr.DstID
	} else {
		// Short header: 8-byte server connection IDs by construction.
		if len(data) < 1+8 {
			mListenerDropNoRoute.Inc()
			return
		}
		dcid = quicwire.ConnID(data[1:9])
	}
	conn, late, _ := l.routes.lookup(dcid)
	switch {
	case conn != nil:
		conn.handleDatagram(data, from)
	case late && long && hdr.Type == quicwire.PacketInitial:
		// A stray or replayed Initial for a connection that just closed
		// must not start a second one (RFC 9000, Section 10.2).
		mListenerDropDrainingInitial.Inc()
	case late:
		// Tail traffic of a closed connection: absorbed silently while
		// its IDs drain. Only afterwards is the state truly lost.
		mListenerLatePackets.Inc()
	case long:
		l.handleNewConn(hdr, data, from)
	default:
		// 1-RTT packet for a connection this endpoint has no state for:
		// answer with a stateless reset so the peer can stop retrying.
		mListenerDropNoRoute.Inc()
		if !l.policy.DisableStatelessReset {
			l.sendStatelessReset(dcid, from, len(data))
		}
	}
}

// addConnID routes an additional server connection ID to c, returning
// the stateless reset token to advertise with it.
func (l *Listener) addConnID(c *Conn, id quicwire.ConnID) ([16]byte, bool) {
	if !l.routes.addConnID(c, string(id)) {
		return [16]byte{}, false
	}
	return l.reset.tokenFor(id), true
}

// retire is every server connection's onClose hook: whatever closed it
// (the peer, the application, a timer, Listener.Close), its routes go
// and its connection IDs drain as tombstones.
func (l *Listener) retire(c *Conn) {
	if l.routes.retire(c) {
		mListenerConns.Add(-1)
	}
}

// acceptsVersion reports whether the server completes handshakes with v.
func (l *Listener) acceptsVersion(v quicwire.Version) bool {
	set := l.policy.AcceptVersions
	if len(set) == 0 {
		set = l.cfg.Versions
	}
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}

func (l *Listener) handleNewConn(hdr *quicwire.Header, data []byte, from net.Addr) {
	if hdr.Type == quicwire.PacketVersionNegotiation || hdr.Type == quicwire.PacketRetry {
		return
	}
	// Version negotiation: forced (0x?a?a?a?a), genuinely unsupported,
	// or unknown-version packets all elicit a VN response if policy
	// provides an advertised set.
	if hdr.Version.IsForcedNegotiation() || !l.acceptsVersion(hdr.Version) {
		l.maybeSendVersionNegotiation(hdr, len(data), from)
		return
	}
	if hdr.Type != quicwire.PacketInitial {
		mListenerDropNoRoute.Inc() // Handshake or 0-RTT for no connection
		return
	}
	if l.policy.DropAllInitials {
		return
	}
	// RFC 9000, Section 14.1: servers must drop Initials in datagrams
	// below 1200 bytes.
	if len(data) < quicwire.MinInitialSize {
		mListenerDropShortInitial.Inc()
		return
	}
	if len(hdr.DstID) < 8 {
		mListenerDropNoRoute.Inc() // too short to derive distinct Initial keys from
		return
	}
	var retryODCID quicwire.ConnID
	if l.policy.UseRetry {
		if len(hdr.Token) == 0 {
			l.sendRetry(hdr, from)
			return
		}
		if !l.policy.AcceptAnyToken {
			odcid, ok := l.retry.validate(from, hdr.Token)
			if !ok {
				mListenerDropToken.Inc()
				switch {
				case hdr.Token[0] == tokenTypeNewToken:
					// A NEW_TOKEN token that no longer validates (expired,
					// client moved, server key rotated) is treated as absent
					// (RFC 9000, Section 8.1.3): validate the address afresh.
					l.sendRetry(hdr, from)
				case l.policy.InvalidTokenClose:
					if pkt, err := AppendInitialClose(nil, hdr, quicwire.InvalidToken, "invalid address validation token"); err == nil {
						l.pconn.WriteTo(pkt, from)
					}
				}
				return // invalid or expired Retry token: drop or refuse
			}
			retryODCID = odcid
		}
		// AcceptAnyToken: the token is taken at face value and the
		// original destination ID is unknown, so the handshake proceeds
		// without the Retry transport-parameter authentication (the
		// client did not see a Retry from us in this exchange).
	}

	// Nobody is draining the accept queue: refuse before any state
	// exists rather than hold connections no one will ever serve.
	if len(l.acceptCh) == cap(l.acceptCh) {
		mListenerDropAcceptQueue.Inc()
		return
	}
	conn := l.newServerConn(hdr, from, retryODCID)
	if conn == nil {
		return
	}
	l.acceptCh <- conn // never blocks: datagrams are handled one at a time, and this one saw room above
	conn.handleDatagram(data, from)
}

// maybeSendVersionNegotiation emits a VN packet per policy.
func (l *Listener) maybeSendVersionNegotiation(hdr *quicwire.Header, datagramLen int, from net.Addr) {
	versions := l.policy.AdvertisedVersions
	if versions == nil {
		versions = l.cfg.Versions
	}
	if len(versions) == 0 {
		return // deployment does not implement version negotiation
	}
	if datagramLen < quicwire.MinInitialSize && !l.policy.RespondToUnpadded {
		return
	}
	if l.policy.GreaseVN && hdr.Version.IsForcedNegotiation() &&
		hdr.Version != quicwire.ForcedNegotiationVersion {
		versions = append(append([]quicwire.Version(nil), versions...), quicwire.GreaseVersion)
	}
	pkt := quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, byte(datagramLen), versions)
	l.pconn.WriteTo(pkt, from)
}

// AppendInitialClose appends to dst a server Initial that refuses the
// connection attempt hdr belongs to: it carries only CONNECTION_CLOSE
// and is derived from the client's header alone, so no connection state
// is created (the stateless refusal pattern of RFC 9000, Section 10.3).
// The Listener answers a bad token with it, and the simulated Internet's
// stateless ghosts answer every Initial with it.
func AppendInitialClose(dst []byte, hdr *quicwire.Header, code quicwire.TransportError, reason string) ([]byte, error) {
	ik, err := quiccrypto.NewInitialKeys(hdr.Version, hdr.DstID)
	if err != nil {
		return dst, err
	}
	var payload []byte
	payload = (&quicwire.ConnectionCloseFrame{ErrorCode: uint64(code), ReasonPhrase: reason}).Append(payload)
	for len(payload) < 3 {
		payload = append(payload, 0)
	}
	respHdr := &quicwire.Header{
		Type:            quicwire.PacketInitial,
		Version:         hdr.Version,
		DstID:           hdr.SrcID,
		SrcID:           quicwire.NewRandomConnID(8),
		PacketNumber:    0,
		PacketNumberLen: 1,
	}
	start := len(dst)
	pkt, pnOff := quicwire.AppendLongHeader(dst, respHdr, len(payload)+16)
	pkt = append(pkt, payload...)
	// Sealing treats its argument as one whole packet and may move it.
	return append(pkt[:start], ik.Server.SealPacket(pkt[start:], pnOff-start, 1, 0)...), nil
}

// newServerConn creates the per-connection state. retryODCID is the
// pre-Retry original destination connection ID (nil without Retry).
func (l *Listener) newServerConn(hdr *quicwire.Header, from net.Addr, retryODCID quicwire.ConnID) *Conn {
	// from is the read loop's scratch; the connection keeps its own copy.
	from = net.UDPAddrFromAddrPort(addrPortOf(from))
	c := newConn(l.cfg, false)
	c.remote = from
	c.version = hdr.Version
	c.keyUpdatePolicy = l.policy.KeyUpdate
	c.rejectUnknownTP = l.policy.RejectUnknownTP
	c.idleCloseNotify = l.policy.IdleCloseNotify
	c.disableMigration = l.policy.DisableMigration
	c.migrateBreak = l.policy.MigrationValidateBreak
	c.origDcid = append(quicwire.ConnID(nil), hdr.DstID...)
	c.dcid = append(quicwire.ConnID(nil), hdr.SrcID...)
	c.scid = quicwire.NewRandomConnID(8)
	c.sendFunc = func(b []byte, to net.Addr) error {
		_, err := l.pconn.WriteTo(b, to)
		return err
	}
	c.initPathLocked(from)
	c.registerCID = func(id quicwire.ConnID) ([16]byte, bool) { return l.addConnID(c, id) }
	c.unregisterCID = func(id quicwire.ConnID) { l.routes.removeConnID(c, id) }
	c.onClose = func() { l.retire(c) }

	// From registration on the connection is reachable (by a packet, by
	// Listener.Close), so the rest of the setup runs under c.mu like
	// every other route-key access, and every failure leaves through
	// closeLocked and thereby retire: no route outlives its connection.
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scidKey = string(c.scid)
	if l.routes.register(c) != nil {
		return nil // listener closed (or a 2^-64 ID collision)
	}
	mListenerConns.Add(1)
	fail := func(err error) *Conn {
		c.hsErr = err
		c.closeLocked(err)
		return nil
	}
	// The client keeps addressing its original destination ID until it
	// has seen our source ID. A failed insert means another connection
	// already owns that route; a stray Initial must not displace it.
	l.routes.addConnID(c, string(c.origDcid))
	if err := c.setupInitialKeys(); err != nil {
		return fail(err)
	}
	if l.cfg.Tracer != nil {
		c.trace = l.cfg.Tracer.Conn(fmt.Sprintf("server_%x", c.scid))
		c.trace.Event("connection_started",
			"remote", from.String(), "version", c.version.String(), "odcid", fmt.Sprintf("%x", c.origDcid))
	}

	tlsCfg := l.tlsBase
	if l.policy.RequireSNI != nil {
		// The SNI check closes over this connection, so it needs a
		// per-connection clone; the clone keeps the shared ticket keys.
		tlsCfg = tlsCfg.Clone()
		inner := tlsCfg.GetConfigForClient
		check := l.policy.RequireSNI
		tlsCfg.GetConfigForClient = func(chi *tls.ClientHelloInfo) (*tls.Config, error) {
			if !check(chi.ServerName) {
				// This callback runs on the TLS handshake goroutine
				// while c.mu may be held by the packet path, so it
				// must not take c.mu itself.
				code := l.policy.CloseCode
				if code == 0 {
					code = quicwire.CryptoError0x128
				}
				reason := l.policy.CloseReason
				if reason == "" {
					reason = "handshake failure"
				}
				c.setForcedClose(code, reason)
				return nil, errors.New("quic: policy rejected client hello")
			}
			if inner != nil {
				return inner(chi)
			}
			return nil, nil
		}
	}

	c.declineEarlyData = l.policy.Decline0RTTOnResume
	c.tls = tls.QUICServer(&tls.QUICConfig{
		TLSConfig: tlsCfg,
		// Session events put ticket issuance under ServerPolicy control
		// (SendSessionTicket in onHandshakeDone) and surface
		// QUICResumeSession so Decline0RTTOnResume can veto early data.
		EnableSessionEvents: true,
	})
	params := l.cfg.TransportParams
	resetToken := l.reset.tokenFor(c.scid)
	params.StatelessResetToken = resetToken[:]
	params.OriginalDestinationConnectionID = c.origDcid
	if retryODCID != nil {
		// After a Retry the client authenticates both the pre-Retry
		// destination ID and the Retry source ID (RFC 9000, 7.3).
		params.OriginalDestinationConnectionID = retryODCID
		params.RetrySourceConnectionID = append(quicwire.ConnID(nil), hdr.DstID...)
	}
	params.InitialSourceConnectionID = c.scid
	params.HasInitialSourceConnectionID = true
	if l.policy.ResumptionTPDowngrade {
		// Defer parameter marshaling: crypto/tls only asks for transport
		// parameters (QUICTransportParametersRequired) after the
		// ClientHello — and with it any session resumption — has been
		// processed, which is exactly when c.resumed is known.
		p := params
		c.tlsParamsFn = func() []byte {
			if c.resumed {
				p.InitialMaxData /= 2
				p.InitialMaxStreamDataBidiLocal /= 2
				p.InitialMaxStreamDataBidiRemote /= 2
				p.InitialMaxStreamDataUni /= 2
			}
			return p.Marshal()
		}
	} else {
		c.tls.SetTransportParameters(params.Marshal())
	}

	c.onHandshakeDone = func() {
		// Confirm the handshake to the client and retire the
		// handshake space (RFC 9001, Section 4.9.2).
		c.spaces[spaceApp].outFrames = append(c.spaces[spaceApp].outFrames,
			&quicwire.HandshakeDoneFrame{})
		c.spaces[spaceHandshake].dropped = true
		// Issue alternate connection IDs (RFC 9000, Section 5.1.1),
		// registered with the listener so packets using them route to
		// this connection; each carries its stateless reset token.
		c.issueConnIDsLocked(2)
		if !l.policy.DisableSessionTickets {
			// The NewSessionTicket's CRYPTO data surfaces as QUICWriteData
			// events picked up by the drain loop still running above this
			// callback, so the ticket rides the same flight as
			// HANDSHAKE_DONE.
			if err := c.tls.SendSessionTicket(tls.QUICSessionTicketOptions{EarlyData: true}); err == nil {
				mTicketsIssued.Inc()
				if c.trace != nil {
					c.trace.Event("session_ticket_sent")
				}
			}
		}
		if l.policy.UseRetry {
			// A validating server hands the client a NEW_TOKEN so its next
			// connection skips the Retry round trip (RFC 9000, 8.1.3).
			c.spaces[spaceApp].outFrames = append(c.spaces[spaceApp].outFrames,
				&quicwire.NewTokenFrame{Token: l.retry.mintResumption(from)})
		}
	}

	if err := c.tls.Start(context.Background()); err != nil {
		return fail(err)
	}
	if err := c.drainTLSEvents(); err != nil {
		return fail(err)
	}
	// The handshake deadline belongs to the listener, not to whoever may
	// call HandshakeComplete: a peer that never finishes its ClientHello
	// is dropped even if the connection is never accepted.
	c.setIdleDeadlineLocked(l.cfg.HandshakeTimeout)
	return c
}

// HandshakeComplete waits for the server-side handshake to finish.
func (c *Conn) HandshakeComplete(ctx context.Context) error {
	// Servers bound the handshake by HandshakeTimeout from the moment
	// the caller starts waiting.
	return c.waitHandshake(ctx, time.Now().Add(c.cfg.HandshakeTimeout))
}
