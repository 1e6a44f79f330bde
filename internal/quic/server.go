package quic

import (
	"context"
	"crypto/rand"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"time"

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
// connection ID: the accepting face of an endpoint, as a Transport is
// the dialing one. Its state is proportional to the connections open,
// not the connections ever served: a closing connection retires its
// routes and leaves only short-lived tombstones behind. Close stops it
// and aborts its connections; so does its socket closing or failing.
type Listener struct {
	endpoint

	cfg    *Config
	policy ServerPolicy
	// tlsBase is the shared per-listener TLS config. Sharing matters
	// for session resumption: ticket keys are pinned once here, so a
	// ticket minted on one connection decrypts on every later one
	// (per-connection clones would each auto-generate their own keys).
	tlsBase *tls.Config
	retry   retryMinter

	acceptCh chan *Conn
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
		tlsBase:  base,
		acceptCh: make(chan *Conn, 64),
	}
	if err := l.start(&serverRole, l, pconn); err != nil {
		return nil, err
	}
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
func (l *Listener) Addr() net.Addr { return l.socks[0].LocalAddr() }

// miss is the server's answer to a datagram no live route owns: tail
// traffic of a closed connection is absorbed, a long header may start a
// connection (or draw Version Negotiation or a Retry), and a short one
// draws a stateless reset. dcid is the destination ID route extracted.
func (l *Listener) miss(hdr *quicwire.Header, data []byte, from net.Addr, dcid []byte, late bool) {
	long := quicwire.IsLongHeader(data[0])
	switch {
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
						l.socks[0].WriteTo(pkt, from)
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
	l.socks[0].WriteTo(pkt, from)
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
	// from is route's scratch; the connection keeps its own copy.
	from = net.UDPAddrFromAddrPort(addrPortOf(from))
	c := newConn(l.cfg, false)
	c.ep, c.sock = &l.endpoint, l.socks[0]
	c.remote = from
	c.version = hdr.Version
	c.keyUpdatePolicy = l.policy.KeyUpdate
	c.rejectUnknownTP = l.policy.RejectUnknownTP
	c.idleCloseNotify = l.policy.IdleCloseNotify
	c.disableMigration = l.policy.DisableMigration
	c.migrateBreak = l.policy.MigrationValidateBreak
	c.origDcid = append(quicwire.ConnID(nil), hdr.DstID...)
	c.dcid = append(quicwire.ConnID(nil), hdr.SrcID...)
	c.scid = quicwire.NewRandomConnID(connIDLen)
	c.initPathLocked(from)

	// From registration on the connection is reachable (by a packet, by
	// Listener.Close), so the rest of the setup runs under c.mu like
	// every other route-key access, and every failure leaves through
	// closeLocked and thereby retire: no route outlives its connection.
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.register(c) != nil {
		return nil // listener closed (or a 2^-64 ID collision)
	}
	fail := func(err error) *Conn {
		c.hsErr = err
		c.closeLocked(err)
		return nil
	}
	// The client keeps addressing its original destination ID until it
	// has seen our source ID. A failed insert means another connection
	// already owns that route; a stray Initial must not displace it.
	l.routes.addConnID(c, c.origDcid)
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
