package quic

import (
	"context"
	"crypto/rand"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
	"quicscan/internal/transportparams"
)

// ServerPolicy lets a deployment control its externally observable
// scanning behaviour. The simulated Internet uses it to reproduce the
// provider quirks the paper documents: servers that ignore the forced
// version negotiation, servers whose advertised and accepted version
// sets disagree (Google's IETF QUIC roll-out: advertise one set, accept
// Config.Versions), and servers that reject handshakes with the generic
// crypto error 0x128 (Cloudflare without SNI).
type ServerPolicy struct {
	// AdvertisedVersions is the list sent in Version Negotiation
	// packets. nil advertises Config.Versions; a non-nil empty slice
	// sends no VN responses at all (such deployments are invisible to
	// the ZMap module but may still be reachable statefully). A version
	// advertised but not in Config.Versions produces the paper's
	// "version mismatch" behaviour.
	AdvertisedVersions []quicwire.Version

	// RespondToUnpadded makes the server answer forced version
	// negotiation even for datagrams below 1200 bytes, violating
	// RFC 9000. The paper found 11.3% of addresses doing this, 95.4%
	// in a single AS (Section 3.1).
	RespondToUnpadded bool

	// RequireSNI refuses a ClientHello without server_name with the
	// generic crypto error 0x128, as the paper observed, carrying
	// CloseReason (default "handshake failure") as its reason phrase.
	RequireSNI  bool
	CloseReason string

	Quirks
}

// Listener serves QUIC connections on a PacketConn, demultiplexing by
// connection ID: the accepting face of an endpoint, as a Transport is
// the dialing one. Its state is proportional to the connections open,
// not the connections ever served: a closing connection retires its
// routes and leaves only short-lived tombstones behind. Close stops it
// and aborts its connections; so does its socket closing or failing.
type Listener struct {
	endpoint

	cfg *Config
	// policy is read in place by every connection of this listener
	// (Conn.policy); it never changes after Listen.
	policy ServerPolicy
	// tlsBase is the shared per-listener TLS config. Sharing matters
	// for session resumption: ticket keys are pinned once here, so a
	// ticket minted on one connection decrypts on every later one
	// (per-connection clones would each auto-generate their own keys).
	// A RequireSNI listener's SNI check lives here too, as one
	// stateless callback.
	tlsBase *tls.Config
	retry   retryMinter
	// serve is the application, started on a goroutine of its own for
	// each connection whose handshake completes; nil runs none.
	serve func(*Conn)
}

// Listen starts a QUIC server on pconn. Each connection is handed to
// serve, on a goroutine of its own, once its handshake completes; until
// then it is state in the route table, not a goroutine. A nil serve
// completes handshakes and serves nothing.
func Listen(pconn net.PacketConn, config *Config, policy ServerPolicy, serve func(*Conn)) (*Listener, error) {
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
	if policy.RequireSNI {
		base.GetConfigForClient = refuseNoSNI
	}
	l := &Listener{
		cfg:     cfg,
		policy:  policy,
		tlsBase: base,
		serve:   serve,
	}
	maxIn := max(int(min(cfg.TransportParams.MaxUDPPayloadSize, maxUDPPayload)), blockMaxPayload)
	if err := l.start(&serverRole, l, maxIn, pconn); err != nil {
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

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr { return l.socks[0].LocalAddr() }

// miss is the server's answer to a datagram no live route owns: tail
// traffic of a closed connection is absorbed, a long header may start a
// connection (or draw Version Negotiation or a Retry), and a short one
// draws a stateless reset. dcid is the destination ID dest extracted. It
// returns the connection the datagram started, which the datagram is
// then delivered to like every later one; nil when none started.
func (l *Listener) miss(hdr *quicwire.Header, data []byte, from net.Addr, dcid []byte, late bool) *Conn {
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
		return l.handleNewConn(hdr, data, from)
	default:
		// 1-RTT packet for a connection this endpoint has no state for:
		// answer with a stateless reset so the peer can stop retrying.
		mListenerDropsBy[dropNoRoute].Inc()
		if !l.policy.DisableStatelessReset {
			l.sendStatelessReset(dcid, from, len(data))
		}
	}
	return nil
}

// errSNIRequired is a RequireSNI listener's refusal of a ClientHello
// without server_name. crypto/tls wraps it, and closeWithTLSErrorLocked
// recognises it to answer with crypto error 0x128.
var errSNIRequired = errors.New("quic: policy rejected client hello")

// refuseNoSNI is the GetConfigForClient of a RequireSNI listener's
// shared TLS config: it keeps no state, so every connection uses it.
func refuseNoSNI(chi *tls.ClientHelloInfo) (*tls.Config, error) {
	if chi.ServerName == "" {
		return nil, errSNIRequired
	}
	return nil, nil
}

// handleNewConn answers a long header no route owns, and returns the
// connection an acceptable Initial starts.
func (l *Listener) handleNewConn(hdr *quicwire.Header, data []byte, from net.Addr) *Conn {
	if hdr.Type == quicwire.PacketVersionNegotiation || hdr.Type == quicwire.PacketRetry {
		return nil
	}
	// Version negotiation: forced (0x?a?a?a?a), genuinely unsupported,
	// or unknown-version packets all elicit a VN response if policy
	// provides an advertised set.
	if hdr.Version.IsForcedNegotiation() || !slices.Contains(l.cfg.Versions, hdr.Version) {
		l.maybeSendVersionNegotiation(hdr, len(data), from)
		return nil
	}
	if hdr.Type != quicwire.PacketInitial {
		mListenerDropsBy[dropNoRoute].Inc() // Handshake or 0-RTT for no connection
		return nil
	}
	// RFC 9000, Section 14.1: servers must drop Initials in datagrams
	// below 1200 bytes.
	if len(data) < quicwire.MinInitialSize {
		mListenerDropShortInitial.Inc()
		return nil
	}
	if len(hdr.DstID) < 8 {
		mListenerDropsBy[dropNoRoute].Inc() // too short to derive distinct Initial keys from
		return nil
	}
	var retryODCID quicwire.ConnID
	if l.policy.Retry != RetryOff {
		if len(hdr.Token) == 0 {
			l.sendRetry(hdr, from)
			return nil
		}
		if l.policy.Retry != RetryLax {
			odcid, ok := l.retry.validate(from, hdr.Token)
			if !ok {
				mListenerDropToken.Inc()
				switch {
				case hdr.Token[0] == tokenTypeNewToken:
					// A NEW_TOKEN token that no longer validates (expired,
					// client moved, server key rotated) is treated as absent
					// (RFC 9000, Section 8.1.3): validate the address afresh.
					l.sendRetry(hdr, from)
				case l.policy.Retry == RetryStrictClose:
					if pkt, err := AppendInitialClose(nil, hdr, quicwire.InvalidToken, "invalid address validation token"); err == nil {
						l.socks[0].WriteTo(pkt, from)
					}
				}
				return nil // invalid or expired Retry token: drop or refuse
			}
			retryODCID = odcid
		}
		// RetryLax: the token is taken at face value and the
		// original destination ID is unknown, so the handshake proceeds
		// without the Retry transport-parameter authentication (the
		// client did not see a Retry from us in this exchange).
	}

	return l.newServerConn(hdr, from, retryODCID)
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
	respHdr := &quicwire.Header{
		Type:            quicwire.PacketInitial,
		Version:         hdr.Version,
		DstID:           hdr.SrcID,
		SrcID:           quicwire.NewRandomConnID(8),
		PacketNumber:    0,
		PacketNumberLen: 1,
	}
	start := len(dst)
	pkt, pnOff := quicwire.AppendLongHeader(dst, respHdr, 0)
	pkt = (&quicwire.ConnectionCloseFrame{ErrorCode: uint64(code), ReasonPhrase: reason}).Append(pkt)
	return sealPacket(pkt, start, pnOff, 1, 0, ik.Server, 0), nil
}

// newServerConn creates the per-connection state. retryODCID is the
// pre-Retry original destination connection ID (nil without Retry).
func (l *Listener) newServerConn(hdr *quicwire.Header, from net.Addr, retryODCID quicwire.ConnID) *Conn {
	// from is dest's scratch; the connection keeps its own copy.
	from = net.UDPAddrFromAddrPort(addrPortOf(from))
	c := newConn(l.cfg, false)
	c.ep, c.sock = &l.endpoint, l.socks[0]
	c.remote = from
	c.version = hdr.Version
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
	// A fresh source ID collides with a live one with probability 2^-64.
	// The client's ID reaches here only when its hash matches no
	// tombstone's: an ID that was never retired matches one with
	// probability at most 2^-51 (drainHash), and its Initial is then
	// dropped in miss as draining_initial.
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

	c.tls = tls.QUICServer(&tls.QUICConfig{
		TLSConfig: l.tlsBase,
		// Session events put ticket issuance under ServerPolicy control
		// (SendSessionTicket in handshakeDone) and surface
		// QUICResumeSession so ResumptionTicketNo0RTT can veto early data.
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
	if l.policy.Resumption == ResumptionDowngrade {
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

	if err := c.tls.Start(context.Background()); err != nil {
		return fail(err)
	}
	if err := c.drainTLSEvents(); err != nil {
		return fail(err)
	}
	// The handshake deadline belongs to the connection: nothing else
	// holds it before its handshake completes, so a peer that never
	// finishes its ClientHello is dropped by this timer.
	c.setIdleDeadlineLocked(time.Now().Add(l.cfg.HandshakeTimeout))
	return c
}

// handshakeDone is a server connection's step when its handshake
// completes, run with c.mu held: it confirms the handshake to the client
// and retires the handshake space (RFC 9001, Section 4.9.2), issues
// alternate connection IDs, a session ticket and, after address
// validation, a NEW_TOKEN, and hands the connection to serve.
func (l *Listener) handshakeDone(c *Conn) {
	app := &c.spaces[spaceApp]
	app.outFrames = append(app.outFrames, &quicwire.HandshakeDoneFrame{})
	c.spaces[spaceHandshake].dropped = true
	// Alternate connection IDs (RFC 9000, Section 5.1.1) route to this
	// connection; each carries its stateless reset token.
	c.issueConnIDsLocked(2)
	if l.policy.Resumption != ResumptionNoTicket {
		// The NewSessionTicket's CRYPTO data surfaces as QUICWriteData
		// events picked up by the drain loop still running above this
		// call, so the ticket rides the same flight as HANDSHAKE_DONE.
		if err := c.tls.SendSessionTicket(tls.QUICSessionTicketOptions{EarlyData: true}); err == nil {
			mTicketsIssued.Inc()
			if c.trace != nil {
				c.trace.Event("session_ticket_sent")
			}
		}
	}
	if l.policy.Retry != RetryOff {
		// A validating server hands the client a NEW_TOKEN so its next
		// connection skips the Retry round trip (RFC 9000, 8.1.3). It
		// binds the address the handshake completed from.
		app.outFrames = append(app.outFrames, &quicwire.NewTokenFrame{Token: l.retry.mintResumption(c.remote)})
	}
	if l.serve != nil {
		go l.serve(c)
	}
}
