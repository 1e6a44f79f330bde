// Package quic implements a QUIC transport (RFC 9000/9001 and the late
// IETF drafts 29/32/34) sufficient for Internet measurement: complete
// client and server handshakes on top of crypto/tls's QUIC support,
// version negotiation, transport parameter exchange, bidirectional and
// unidirectional streams, and connection close semantics — the
// substrate beneath the stateful QScanner and the simulated
// deployments it scans.
//
// The implementation favours clarity and measurement fidelity over raw
// transfer performance. Loss recovery is a simple PTO-based
// retransmission scheme with no congestion control, which is ample for
// handshakes and small HTTP/3 exchanges. Flow control is advertised in
// the transport parameters but not enforced: every MAX_* and *_BLOCKED
// frame is accepted and ignored, no MAX_DATA or MAX_STREAM_DATA is ever
// sent, the send path does not consult the peer's limits, and received
// stream data and stream counts are unbounded (ROADMAP item 5). What
// the receive path does enforce is which frames may arrive in which
// packet type and from which role (RFC 9000, Section 12.4).
package quic

import (
	"crypto/tls"
	"errors"
	"strings"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
	"quicscan/internal/transportparams"
)

// Config configures a client or server connection.
type Config struct {
	// TLS is the TLS configuration. NextProtos must be set (QUIC
	// requires ALPN).
	TLS *tls.Config

	// Versions are the QUIC versions to offer or accept, most
	// preferred first. Defaults to [draft-29, draft-32, draft-34,
	// version 1] — the QScanner-compatible set from the paper's
	// Section 3.4.
	Versions []quicwire.Version

	// TransportParams are the local transport parameters.
	TransportParams transportparams.Parameters

	// HandshakeTimeout bounds the entire handshake (default 5s).
	HandshakeTimeout time.Duration

	// MaxIdleTimeout tears down connections with no activity
	// (default 30s).
	MaxIdleTimeout time.Duration

	// PTO is the retransmission timeout (default 150ms). Each
	// consecutive PTO without forward progress doubles the interval,
	// capped at MaxPTOBackoff.
	PTO time.Duration

	// MaxPTOs is the retransmission budget: how many consecutive PTO
	// expirations without an acknowledgment are tolerated before the
	// endpoint gives up (default 6, negative disables retransmission
	// entirely). A handshake that exhausts the budget aborts with
	// ErrHandshakeTimeout immediately instead of idling out the
	// deadline — the scanner-relevant fast-fail for dead targets.
	MaxPTOs int

	// MaxPTOBackoff caps the exponentially growing PTO interval
	// (default 2s).
	MaxPTOBackoff time.Duration

	// MaxDatagramSize caps outgoing UDP payloads (default 1350).
	MaxDatagramSize int

	// InitialToken, when non-empty, is attached to the client's first
	// Initial packets as an address validation token (RFC 9000,
	// Section 8.1), as though it had been obtained from an earlier
	// Retry or NEW_TOKEN. The fingerprint prober uses a bogus token to
	// observe how a Retry-performing server treats replayed or forged
	// tokens.
	InitialToken []byte

	// Tracer, when non-nil, records a qlog-style JSON-seq event trace
	// for every connection (one file per connection under the tracer's
	// directory — the -qlog-dir flag). Packet sends/receives, version
	// negotiation, handshake state transitions, PTO fires and
	// retransmits, transport parameter receipt and the close reason
	// are all recorded, so a failed or repaired handshake can be
	// replayed event-by-event. Nil disables tracing at zero cost.
	Tracer *telemetry.Tracer

	// SessionCache, when non-nil, enables the handshake fast path for
	// client dials: session tickets received on one connection are
	// stored (together with the server's transport parameters and any
	// NEW_TOKEN address validation token) and a later dial to the same
	// target resumes the TLS session, offers the first flight of
	// application data in 0-RTT, and attaches the token so the server
	// skips its Retry round trip. Entries are keyed by
	// TLS.ServerName, falling back to the remote address string when
	// no SNI is set. Share one cache across the dials of a rescan
	// campaign.
	SessionCache *SessionCache

	// defaultParams records that clone() substituted
	// DefaultClientParams() for an unset TransportParams, which lets
	// the client marshal local parameters from a precomputed template
	// instead of re-encoding the same values on every dial.
	defaultParams bool
}

// scannerVersions is the version set supported by the QScanner in the
// paper's measurement window: drafts 29, 32, 34 (and version 1 after
// the RFC 9000 release).
func scannerVersions() []quicwire.Version {
	return []quicwire.Version{
		quicwire.VersionDraft29,
		quicwire.VersionDraft32,
		quicwire.VersionDraft34,
		quicwire.Version1,
	}
}

func (c *Config) clone() *Config {
	out := *c
	if out.Versions == nil {
		out.Versions = scannerVersions()
	}
	if out.HandshakeTimeout == 0 {
		out.HandshakeTimeout = 5 * time.Second
	}
	if out.MaxIdleTimeout == 0 {
		out.MaxIdleTimeout = 30 * time.Second
	}
	if out.PTO == 0 {
		out.PTO = 150 * time.Millisecond
	}
	if out.MaxPTOs == 0 {
		out.MaxPTOs = 6
	}
	if out.MaxPTOBackoff == 0 {
		out.MaxPTOBackoff = 2 * time.Second
	}
	if out.MaxDatagramSize == 0 {
		out.MaxDatagramSize = 1350
	}
	if out.TransportParams.MaxUDPPayloadSize == 0 {
		out.TransportParams = DefaultClientParams()
		out.defaultParams = true
	}
	return &out
}

// DefaultClientParams returns sensible client transport parameters for
// scanning: generous receive windows so servers are never blocked.
func DefaultClientParams() transportparams.Parameters {
	p := transportparams.Default()
	p.MaxIdleTimeout = 30000
	p.InitialMaxData = 1 << 22
	p.InitialMaxStreamDataBidiLocal = 1 << 20
	p.InitialMaxStreamDataBidiRemote = 1 << 20
	p.InitialMaxStreamDataUni = 1 << 20
	p.InitialMaxStreamsBidi = 16
	p.InitialMaxStreamsUni = 16
	p.MaxUDPPayloadSize = 1452
	return p
}

// VersionNegotiationError is returned by Dial when the server's
// Version Negotiation packet shares no version with the client's
// offer — the paper's "Version Mismatch" outcome (Table 3).
type VersionNegotiationError struct {
	Offered []quicwire.Version
	Server  []quicwire.Version
}

func (e *VersionNegotiationError) Error() string {
	// Built by hand rather than through fmt: scans over VN-only hosts
	// stringify this error once per target.
	var b strings.Builder
	b.Grow(64)
	b.WriteString("quic: version mismatch: offered [")
	for i, v := range e.Offered {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	b.WriteString("], server supports [")
	for i, v := range e.Server {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	b.WriteByte(']')
	return b.String()
}

// ErrHandshakeTimeout is returned when the handshake deadline expires,
// the paper's "Timeout" outcome.
var ErrHandshakeTimeout = errors.New("quic: handshake timeout")

// errConnectionClosed is returned for operations on a closed
// connection.
var errConnectionClosed = errors.New("quic: connection closed")

// errIdleTimeout is the error a connection dies with after the
// negotiated max_idle_timeout elapses without traffic (RFC 9000,
// Section 10.1).
var errIdleTimeout = errors.New("quic: connection idle timeout")

// ErrParameterDowngrade is the error a resumed connection dies with
// when the client sent 0-RTT data, the server accepted it, and the
// server's fresh transport parameters then reduced a flow control or
// stream limit below the values remembered with the session ticket —
// forbidden by RFC 9000 §7.4.1. The connection is closed with
// PROTOCOL_VIOLATION and the offending session ticket is invalidated
// so the next dial performs a full handshake.
var ErrParameterDowngrade = errors.New("quic: transport parameters reduced on resumption")

// Stats captures measurement-relevant facts about one connection
// attempt: what the scanner records per target and what the
// behavioural scan modes compute their verdicts from (Retried,
// PathChallengesReceived). Its counts are the only count of these
// events: a connection adds Retried, Retransmits and the path and
// migration counts to their quic_* series once, as it closes.
type Stats struct {
	// VersionNegotiation is true if the server replied with a Version
	// Negotiation packet during the handshake.
	VersionNegotiation bool
	// ServerVersions is the version list from that packet.
	ServerVersions []quicwire.Version
	// Retried is true if the server sent a Retry packet.
	Retried bool
	// Retransmits counts PTO expirations that re-sent unacknowledged
	// frames — the connection's loss-recovery work.
	Retransmits int
	// HandshakeDuration is the time from first Initial to handshake
	// completion.
	HandshakeDuration time.Duration
	// PathChallengesSent and PathChallengesReceived count PATH_CHALLENGE
	// frames in each direction; the migration scan mode reads the
	// received count to distinguish a deployment that validated a new
	// path from one that never reacted.
	PathChallengesSent, PathChallengesReceived int
	// PathValidations counts successful PATH_CHALLENGE/PATH_RESPONSE
	// round trips; PathValidationFailures counts probes abandoned after
	// their retry budget.
	PathValidations, PathValidationFailures int
	// Migrations counts active-path switches: a server's promotions of a
	// validated path after its peer's address changed.
	Migrations int
}
