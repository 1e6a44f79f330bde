package quic

import "fmt"

// Quirks are the implementation-level behaviours that tell one QUIC
// stack from another: small, legal (or borderline) deviations an
// observer can elicit. Every zero value is the RFC-conforming default.
// The simulated Internet's provider profiles carry one Quirks each, as
// they are, and the fingerprint, migration and resumption scan modes
// classify deployments by observing them.
type Quirks struct {
	// GreaseVN appends GreaseVersion to Version Negotiation responses,
	// but only when the client offered a reserved 0x?a?a?a?a version
	// other than ForcedNegotiationVersion. The standard ZMap probe
	// (which always offers ForcedNegotiationVersion) therefore sees the
	// plain advertised set, keeping the discovery figures calibrated,
	// while the fingerprint prober's distinct reserved version elicits
	// the grease entry.
	GreaseVN bool

	// Retry selects address validation (RFC 9000, Section 8.1).
	Retry RetryPolicy

	// DisableStatelessReset suppresses stateless resets for orphan
	// short-header datagrams; the deployment stays silent instead.
	DisableStatelessReset bool

	// KeyUpdate selects how server connections respond to a
	// client-initiated key update (RFC 9001, Section 6).
	KeyUpdate KeyUpdatePolicy

	// RejectUnknownTP closes connections whose client advertised any
	// unknown (e.g. GREASE) transport parameter with
	// TRANSPORT_PARAMETER_ERROR (0x8). RFC 9000 Section 7.4.2 requires
	// ignoring unknown parameters, but early stacks got this wrong.
	RejectUnknownTP bool

	// IdleCloseNotify sends CONNECTION_CLOSE(NO_ERROR) when the idle
	// timer fires instead of tearing the connection down silently.
	IdleCloseNotify bool

	// Migration is the reaction to a peer address change after the
	// handshake (RFC 9000, Section 9).
	Migration MigrationPolicy

	// Resumption is what a returning client presenting a session
	// ticket experiences (RFC 9000, Section 7.4.1).
	Resumption ResumptionPolicy
}

// RetryPolicy selects a server's address validation.
type RetryPolicy int

const (
	// RetryOff completes handshakes without a Retry (the default).
	RetryOff RetryPolicy = iota
	// RetryStrictDrop answers token-less Initials with a Retry and
	// silently drops Initials carrying an invalid Retry token. A
	// validating server also hands each client a NEW_TOKEN.
	RetryStrictDrop
	// RetryStrictClose is RetryStrictDrop, but refuses an invalid token
	// with an immediate INVALID_TOKEN (0x0b) close (RFC 9000, Section
	// 8.1.3 permits either).
	RetryStrictClose
	// RetryLax demands a token but accepts any non-empty value: the
	// handshake proceeds without the Retry transport-parameter
	// authentication, as the original destination ID is unknown.
	RetryLax
)

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

// MigrationPolicy selects a server's reaction to an established
// client's address change (NAT rebinding or deliberate migration). Its
// String values are the migration scan mode's verdict vocabulary.
type MigrationPolicy int

const (
	// MigrationSupported validates the new path with PATH_CHALLENGE and
	// migrates to it: the RFC-conforming default.
	MigrationSupported MigrationPolicy = iota
	// MigrationDisabled ignores peer address changes entirely: no
	// PATH_CHALLENGE is sent, traffic keeps targeting the old address
	// and off-path PATH_CHALLENGEs go unanswered (stateless load
	// balancers that hash on the 4-tuple). Paired with
	// disable_active_migration in the transport parameters it is
	// honest; paired with a permissive parameter set it reproduces load
	// balancers that advertise support they do not have.
	MigrationDisabled
	// MigrationValidateBreak walks the validation handshake correctly
	// (PATH_CHALLENGE out, PATH_RESPONSE verified) and then closes the
	// connection the moment it would switch paths: the half-implemented
	// middle ground the migration scan mode exists to expose.
	MigrationValidateBreak
)

func (m MigrationPolicy) String() string {
	switch m {
	case MigrationSupported:
		return "supported"
	case MigrationDisabled:
		return "disabled"
	case MigrationValidateBreak:
		return "validate-break"
	}
	return fmt.Sprintf("MigrationPolicy(%d)", int(m))
}

// ResumptionPolicy selects a server's session-resumption and 0-RTT
// behaviour. Its String values are the resumption scan mode's verdict
// vocabulary.
type ResumptionPolicy int

const (
	// Resumption0RTT issues tickets with early data enabled and accepts
	// the returning client's 0-RTT flight: the full fast path (the
	// default).
	Resumption0RTT ResumptionPolicy = iota
	// ResumptionNoTicket never sends a NewSessionTicket, so every visit
	// pays the full handshake (TLS terminated on stateless frontends
	// without a shared ticket key).
	ResumptionNoTicket
	// ResumptionTicketNo0RTT issues tickets with early data enabled but
	// declines the early data on every resumed handshake, forcing the
	// client to replay its 0-RTT flight in 1-RTT (the common
	// anti-replay-cautious configuration).
	ResumptionTicketNo0RTT
	// ResumptionDowngrade advertises halved flow-control limits on
	// resumed handshakes only. RFC 9000, Section 7.4.1 forbids reducing
	// remembered limits while accepting 0-RTT; conforming clients close
	// with PROTOCOL_VIOLATION. Models frontends whose resumption path
	// reads a staler, smaller configuration than the full-handshake
	// path.
	ResumptionDowngrade
)

func (r ResumptionPolicy) String() string {
	switch r {
	case Resumption0RTT:
		return "0rtt"
	case ResumptionNoTicket:
		return "no-ticket"
	case ResumptionTicketNo0RTT:
		return "ticket-no-0rtt"
	case ResumptionDowngrade:
		return "0rtt-downgrade"
	}
	return fmt.Sprintf("ResumptionPolicy(%d)", int(r))
}
