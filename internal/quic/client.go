package quic

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
	"quicscan/internal/transportparams"
)

// Dial establishes a QUIC connection over pconn to remote, completing
// the TLS handshake before returning. It is a compatibility wrapper
// around Transport.Dial using a single-socket pool.
//
// Ownership rule: the QUIC layer takes ownership of pconn
// unconditionally. On success the socket is closed when the returned
// connection closes; on failure it is closed before Dial returns. The
// caller must not close it, nor set deadlines on it, in either case.
// Callers muxing many connections should use NewTransport and
// Transport.Dial directly instead of paying one socket per connection.
func Dial(ctx context.Context, pconn net.PacketConn, remote net.Addr, config *Config) (*Conn, error) {
	t, err := NewTransport(pconn)
	if err != nil {
		pconn.Close()
		return nil, err
	}
	conn, err := t.Dial(ctx, remote, config)
	if err != nil {
		t.Close()
		return nil, err
	}
	go func() {
		<-conn.Closed()
		t.Close()
	}()
	return conn, nil
}

// chooseVersion picks the client's most preferred version the server
// supports.
func chooseVersion(offered, server []quicwire.Version) (quicwire.Version, bool) {
	for _, o := range offered {
		for _, s := range server {
			if o == s {
				return o, true
			}
		}
	}
	return 0, false
}

// dialVersion runs one handshake attempt at a fixed version. The
// connection registers its source ID with the transport before the
// first packet leaves, and closeLocked retires it on every close path.
// priorVN, when non-nil, is the server version list from a Version
// Negotiation answer to an earlier attempt; it is recorded up front so
// the surviving connection's Stats report the negotiation (a VN packet
// is only ever addressed to the attempt that triggered it, so the retry
// would otherwise never see one).
func (t *Transport) dialVersion(ctx context.Context, deadline time.Time, remote net.Addr, cfg *Config, version quicwire.Version, priorVN []quicwire.Version, early bool) (*Conn, error) {
	c := newConn(cfg, true)
	c.ep, c.sock = &t.endpoint, t.socks[int(t.next.Add(1)-1)%len(t.socks)] // round-robin
	c.remote = remote
	c.version = version
	if priorVN != nil {
		c.stats.VersionNegotiation = true
		c.stats.ServerVersions = priorVN
	}
	// One randomness draw covers both IDs; they are retained as
	// separate non-overlapping views of the same allocation.
	ids := quicwire.NewRandomConnID(2 * connIDLen)
	c.dcid = quicwire.ConnID(ids[:connIDLen:connIDLen])
	c.origDcid = c.dcid
	c.initPathLocked(remote) // also the address route, for stateless resets
	// Give the server spare client connection IDs so it can rotate on
	// its side of a migration (RFC 9000, Section 5.1.1).
	c.onHandshakeDone = func() { c.issueConnIDsLocked(2) }

	t.cDials.Add(1)
	mDials.Inc()
	c.scid = quicwire.ConnID(ids[connIDLen:])
	// A fresh source ID on the (cosmically unlikely) random collision.
	for attempt := 0; ; attempt++ {
		err := t.register(c)
		if err == nil {
			break
		}
		if err != errDuplicateCID || attempt == 3 {
			return nil, err
		}
		c.scid = quicwire.NewRandomConnID(connIDLen)
	}
	if cfg.Tracer != nil {
		c.trace = cfg.Tracer.Conn(fmt.Sprintf("client_%x", c.scid))
		c.trace.Event("connection_started",
			"remote", remote.String(), "version", version.String(), "odcid", fmt.Sprintf("%x", c.origDcid))
	}

	fail := func(err error) (*Conn, error) {
		c.abort(err) // retires the registered IDs
		return nil, err
	}

	if err := c.setupInitialKeys(); err != nil {
		return fail(err)
	}
	if len(cfg.InitialToken) > 0 {
		// A caller-supplied address validation token rides on the first
		// flight, as if obtained from an earlier Retry or NEW_TOKEN.
		c.retryToken = append([]byte(nil), cfg.InitialToken...)
	}

	tlsCfg := cfg.TLS
	if tlsCfg == nil {
		tlsCfg = &tls.Config{InsecureSkipVerify: true, NextProtos: []string{"h3"}}
	}
	tlsCfg = forTLS13(tlsCfg)
	if cfg.SessionCache != nil {
		tlsCfg = resumptionTLSConfig(tlsCfg, cfg.SessionCache, remote)
		c.sessionCache = cfg.SessionCache
		// The session cache key mirrors crypto/tls's
		// (tls.Config.ServerName, which resumptionTLSConfig guarantees
		// is non-empty); NEW_TOKEN tokens share it.
		c.sessionKey = tlsCfg.ServerName
		if len(c.retryToken) == 0 {
			// Replay the NEW_TOKEN address validation token from the
			// previous dial so a Retry-performing server skips its
			// extra round trip (RFC 9000, Section 8.1.3).
			if tok := cfg.SessionCache.token(c.sessionKey); len(tok) > 0 {
				c.retryToken = append([]byte(nil), tok...)
				mNewTokensReplayed.Inc()
			}
		}
	}
	c.tls = tls.QUICClient(&tls.QUICConfig{
		TLSConfig: tlsCfg,
		// With a session cache, ticket storage is explicit
		// (QUICStoreSession) so the remembered transport parameters can
		// be attached before the session is stored.
		EnableSessionEvents: cfg.SessionCache != nil,
	})
	c.tls.SetTransportParameters(localParams(cfg, c.scid))

	c.mu.Lock()
	if err := c.tls.Start(ctx); err != nil {
		c.mu.Unlock()
		return fail(err)
	}
	if err := c.drainTLSEvents(); err != nil {
		c.mu.Unlock()
		return fail(err)
	}
	c.sendPendingLocked()
	earlyReturn := early && c.earlySendKeys != nil
	if earlyReturn {
		c.earlyReturned = true
	}
	c.mu.Unlock()

	if earlyReturn {
		// 0-RTT fast path: the session resumed with early traffic keys,
		// so the caller can queue application data immediately — it
		// rides to the server in 0-RTT packets while the handshake
		// completes in the background. HandshakeComplete surfaces the
		// eventual outcome (including ErrParameterDowngrade).
		return c, nil
	}
	if err := c.waitHandshake(ctx, deadline); err != nil {
		c.abort(err)
		return nil, err
	}
	return c, nil
}

// resumptionTLSConfig prepares a TLS config for a dial that should use
// the session cache: the cache is installed as the ClientSessionCache
// and ServerName gets a remote-address fallback. The fallback matters
// because crypto/tls keys its client session cache by ServerName (it
// has no net.Conn to fall back on in QUIC mode): with an empty name,
// tickets would be stored under the empty key and never found again.
// An IP-literal ServerName is never sent on the wire as SNI
// (RFC 6066 §3 via crypto/tls), so RequireSNI-style servers still see
// an SNI-less ClientHello.
func resumptionTLSConfig(tlsCfg *tls.Config, cache *SessionCache, remote net.Addr) *tls.Config {
	if tlsCfg.ClientSessionCache == tls.ClientSessionCache(cache) && tlsCfg.ServerName != "" {
		return tlsCfg
	}
	out := tlsCfg.Clone()
	out.ClientSessionCache = cache
	if out.ServerName == "" {
		out.ServerName = remote.String()
	}
	return out
}

// handshakeResult buckets a failed dial for the quic_handshakes_total
// metric, mirroring the paper's outcome classes at the QUIC layer.
func handshakeResult(err error) string {
	switch {
	case err == nil:
		return "success"
	case errors.Is(err, ErrHandshakeTimeout), errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		var vne *VersionNegotiationError
		if errors.As(err, &vne) {
			return "version_mismatch"
		}
		return "error"
	}
}

// handshakeCounter maps a dial outcome to its pre-resolved counter.
func handshakeCounter(err error) *telemetry.Counter {
	switch handshakeResult(err) {
	case "success":
		return mHandshakeSuccess
	case "timeout":
		return mHandshakeTimeout
	case "version_mismatch":
		return mHandshakeVersionMismatch
	default:
		return mHandshakeError
	}
}

// forTLS13 clones a TLS config and pins the version to 1.3, which QUIC
// mandates (RFC 9001, Section 4.2).
func forTLS13(cfg *tls.Config) *tls.Config {
	if cfg.MinVersion >= tls.VersionTLS13 {
		return cfg // already pinned; nothing to fix up
	}
	out := cfg.Clone()
	out.MinVersion = tls.VersionTLS13
	return out
}

// localParams marshals the configured transport parameters with the
// connection's source ID attached, without mutating the Config.
//
// Every dial with default parameters (the whole scanner fleet) used to
// re-encode the identical parameter set per connection; those now copy
// a precomputed template and append only the per-connection
// initial_source_connection_id, which Marshal emits last for a client
// (no retry_source_connection_id, no unknown parameters).
func localParams(cfg *Config, scid quicwire.ConnID) []byte {
	if cfg.defaultParams {
		prefix := defaultTPPrefix()
		b := make([]byte, 0, len(prefix)+2+len(scid))
		b = append(b, prefix...)
		// appendParam with id 0x0f: both the ID and the length fit in
		// single-byte varints.
		b = append(b, byte(transportparams.IDInitialSourceConnectionID), byte(len(scid)))
		return append(b, scid...)
	}
	p := cfg.TransportParams
	p.InitialSourceConnectionID = scid
	p.HasInitialSourceConnectionID = true
	return p.Marshal()
}

// defaultTPPrefix is the marshaled DefaultClientParams without the
// initial_source_connection_id, computed once.
var (
	defaultTPPrefixOnce  sync.Once
	defaultTPPrefixBytes []byte
)

func defaultTPPrefix() []byte {
	defaultTPPrefixOnce.Do(func() {
		p := DefaultClientParams()
		defaultTPPrefixBytes = p.Marshal()
	})
	return defaultTPPrefixBytes
}
