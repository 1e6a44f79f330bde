package quic

import (
	"context"
	"errors"
	"net"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
)

// errTransportClosed is returned for operations on a closed Transport.
var errTransportClosed = errors.New("quic: transport closed")

// Transport multiplexes many client connections over a small, fixed
// pool of UDP sockets — the architecture high-rate scanners need:
// socket count stays constant no matter how many concurrent handshakes
// are in flight, instead of one kernel socket per target. It is the
// dialing face of an endpoint, as a Listener is the accepting one.
//
// One pump runs per socket, and only routes: it hands each inbound
// datagram to the owning *Conn's queue, which the endpoint's executors
// run, so one connection's handshake never holds up the socket. Inbound
// datagrams are routed to the owning *Conn by destination connection ID: every connection registers its
// source connection ID at handshake start, and the server addresses all
// of its packets — Initial, Handshake, 1-RTT, and also Version
// Negotiation and Retry, which echo the client's SCID — to that ID.
// Packets whose destination ID matches no live connection (notably
// stateless resets, which carry random bytes where the CID would be)
// fall back to routing by remote address.
//
// Ownership rule: the Transport owns its sockets. They are closed by
// Transport.Close (or when one of them fails) and by nothing else;
// connections dialed through a Transport never close, nor set deadlines
// on, the underlying sockets.
type Transport struct{ endpoint }

// TransportStats is a snapshot of a Transport's routing counters: the
// facts of one socket pool, which core.Scanner.TransportStats reports
// per scanner (sockets, routing misses, drops). They are the only count
// of these events: the registry's client series (quic_dials_total,
// quic_datagrams_in_total, ...) read them.
type TransportStats struct {
	// Sockets is the fixed pool size.
	Sockets int
	// ActiveConns is the number of currently registered connections.
	ActiveConns int
	// Dials counts connection attempts (version-negotiation retries
	// count separately).
	Dials uint64
	// DatagramsIn/Out and BytesIn/Out count UDP payloads crossing the
	// pool.
	DatagramsIn, DatagramsOut uint64
	BytesIn, BytesOut         uint64
	// RoutingMisses counts datagrams whose destination connection ID
	// matched no live connection but that were still delivered via the
	// remote-address fallback (stateless resets take this path).
	RoutingMisses uint64
	// LatePackets counts datagrams for a connection ID retired within
	// the draining period — expected tail traffic, not a loss.
	LatePackets uint64
	// Dropped counts datagrams delivered to no connection: empty,
	// unparsable, or with no route at all; it is the sum of the reasons
	// quic_dropped_datagrams_total{reason} splits it by.
	Dropped uint64
}

// NewTransport creates a transport over the given sockets and takes
// ownership of them: they are closed by Transport.Close.
func NewTransport(pconns ...net.PacketConn) (*Transport, error) {
	if len(pconns) == 0 {
		return nil, errors.New("quic: NewTransport requires at least one socket")
	}
	t := &Transport{endpoint{tally: new(tally)}}
	t.detach = telemetry.Default().Attach(t.readCounts)
	t.start(&clientRole, nil, blockMaxPayload, pconns...) // pulls, so it cannot fail
	return t, nil
}

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() TransportStats {
	c := t.tally
	st := TransportStats{
		Sockets:       len(t.socks),
		ActiveConns:   t.routes.activeConns(),
		Dials:         c.dials.Load(),
		DatagramsIn:   c.datagramsIn.Load(),
		DatagramsOut:  c.datagramsOut.Load(),
		BytesIn:       c.bytesIn.Load(),
		BytesOut:      c.bytesOut.Load(),
		RoutingMisses: c.routingMisses.Load(),
		LatePackets:   c.latePackets.Load(),
	}
	for i := range c.dropped {
		st.Dropped += c.dropped[i].Load()
	}
	return st
}

func (t *Transport) readCounts(rd *telemetry.Reading) {
	c := t.tally
	rd.Count(mDials, c.dials.Load())
	rd.Count(mDatagramsIn, c.datagramsIn.Load())
	rd.Count(mDatagramsOut, c.datagramsOut.Load())
	rd.Count(mBytesIn, c.bytesIn.Load())
	rd.Count(mBytesOut, c.bytesOut.Load())
	rd.Count(mRoutingMiss, c.routingMisses.Load())
	rd.Count(mLatePackets, c.latePackets.Load())
	for i := range c.dropped {
		rd.Count(mDroppedBy[i], c.dropped[i].Load())
	}
	rd.Level(mActiveConns, int64(t.routes.activeConns()))
}

// Dial establishes a QUIC connection to remote over the socket pool,
// completing the TLS handshake before returning.
//
// If the server answers with a Version Negotiation packet, Dial
// retries once with the best mutually supported version; if there is
// none it returns a *VersionNegotiationError — the paper's "Version
// Mismatch" outcome.
func (t *Transport) Dial(ctx context.Context, remote net.Addr, config *Config) (*Conn, error) {
	return t.dial(ctx, remote, config, false)
}

// DialEarly is Dial for the 0-RTT fast path: when the config's
// SessionCache holds an early-data-capable session for remote, it
// returns as soon as the 0-RTT keys are derived — before any network
// round trip — so data the caller queues immediately rides to the
// server in 0-RTT packets alongside the resumed handshake. When no
// usable session exists (first contact, expired ticket, server never
// offered early data) it degrades to a normal blocking Dial.
//
// After an early return the handshake is still in flight: call
// Conn.HandshakeComplete to observe its outcome, including
// ErrParameterDowngrade when the server violated RFC 9000 §7.4.1.
// Version negotiation on an early-returned dial is not retried — a
// cached session implies the server already accepted this version.
func (t *Transport) DialEarly(ctx context.Context, remote net.Addr, config *Config) (*Conn, error) {
	return t.dial(ctx, remote, config, true)
}

func (t *Transport) dial(ctx context.Context, remote net.Addr, config *Config, early bool) (*Conn, error) {
	cfg := config.clone()
	// The pumps read into one-block nodes: a peer is never told it may
	// send a datagram longer than they hold.
	if cfg.TransportParams.MaxUDPPayloadSize > blockMaxPayload {
		cfg.TransportParams.MaxUDPPayloadSize = blockMaxPayload
	}
	// One handshake deadline for the dial, VN retry included. It is the
	// connection's own (its timer enforces it) rather than a derived
	// context, which would cost several allocations per dial. The
	// caller's ctx still cancels a dial, which then returns ctx's error.
	deadline := time.Now().Add(cfg.HandshakeTimeout)

	version := cfg.Versions[0]
	var priorVN []quicwire.Version
	for attempt := 0; ; attempt++ {
		conn, err := t.dialVersion(ctx, deadline, remote, cfg, version, priorVN, early)
		if err == nil {
			// An early-returned dial's handshake is still running; its
			// outcome is counted at completion (completeHandshakeLocked)
			// instead of here.
			if !conn.earlyReturn() {
				mHandshakeSuccess.Inc()
			}
			return conn, nil
		}
		var vne *VersionNegotiationError
		if attempt == 0 && errors.As(err, &vne) {
			if v, ok := chooseVersion(cfg.Versions, vne.Server); ok {
				version = v
				// The retry connection carries the negotiation evidence
				// so Stats on the surviving connection reflect it.
				priorVN = vne.Server
				continue
			}
		}
		handshakeCounter(err).Inc()
		return nil, err
	}
}
