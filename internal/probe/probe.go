// Package probe is what the behavioural scan modes
// (internal/fingerprint, internal/migration, internal/resumption)
// share beyond the list-scan path of internal/listscan: the target
// type, the dialer with its TLS and quic.Config defaults, and the
// per-mode target and verdict counters — so that a mode is only its
// scenario function, its verdict names and its result type.
package probe

import (
	"context"
	"crypto/tls"
	"net"
	"net/netip"
	"time"

	"quicscan/internal/quic"
	"quicscan/internal/telemetry"
)

// Target is one endpoint to classify.
type Target struct {
	// Addr is the UDP endpoint.
	Addr netip.AddrPort
	// SNI is the server name offered in the handshake; may be empty
	// for targets that do not require SNI.
	SNI string
}

// VerdictUnreachable is what every mode reports for a target whose
// scenario could not run to a classification: no socket, no
// handshake, or a connection that died before the observation.
const VerdictUnreachable = "unreachable"

// Mode is what a scan mode supplies to the engine: the name its
// <name>_targets_total and <name>_verdicts_total{verdict} counters
// are registered under, and its retransmission schedule.
type Mode struct {
	pto      time.Duration
	maxPTOs  int
	targets  *telemetry.Counter
	verdicts *telemetry.CounterVec
}

// NewMode registers a mode's counters. A short schedule (few, quick
// PTOs) makes deliberately dropped packets a bounded observation; a
// long one rides out a path the scenario itself has just disturbed.
func NewMode(name string, pto time.Duration, maxPTOs int) *Mode {
	return &Mode{
		pto:      pto,
		maxPTOs:  maxPTOs,
		targets:  telemetry.Default().Counter(name + "_targets_total"),
		verdicts: telemetry.Default().CounterVec(name+"_verdicts_total", "verdict"),
	}
}

// Settle closes one target's scenario: it counts the target and its
// verdict and returns the verdict and error text to record. A
// scenario that ended in err without reaching a verdict is
// VerdictUnreachable; one that names a verdict and an err (a
// classification reached through a failure) keeps both.
func (m *Mode) Settle(verdict string, err error) (string, string) {
	if verdict == "" {
		verdict = VerdictUnreachable
	}
	m.targets.Inc()
	m.verdicts.With(verdict).Inc()
	if err != nil {
		return verdict, err.Error()
	}
	return verdict, ""
}

// Dialer opens the sockets and handshakes scenarios run over. The
// zero value is not usable: DialPacket must be set. A Dialer is safe
// for concurrent use.
type Dialer struct {
	// DialPacket opens a fresh client socket — net.ListenPacket on the
	// real Internet, simnet.Network.DialUDP inside the simulation.
	DialPacket func() (net.PacketConn, error)

	// HandshakeTimeout bounds each handshake attempt (default 1.5s).
	HandshakeTimeout time.Duration
}

// Timeout is the effective per-handshake bound.
func (d Dialer) Timeout() time.Duration {
	if d.HandshakeTimeout > 0 {
		return d.HandshakeTimeout
	}
	return 1500 * time.Millisecond
}

// Config assembles the quic.Config for one handshake with t on m's
// schedule. Certificates are not verified (the modes measure
// transport behaviour, not authenticity), the scanner's h3 ALPN
// ladder and default versions are offered, and transport parameters
// are left to quic's client defaults; scenarios adjust the returned
// value before dialing.
func (d Dialer) Config(m *Mode, t Target) *quic.Config {
	return &quic.Config{
		TLS: &tls.Config{
			InsecureSkipVerify: true,
			ServerName:         t.SNI,
			NextProtos:         []string{"h3", "h3-34", "h3-32", "h3-29", "h3-28", "h3-27"},
		},
		HandshakeTimeout: d.Timeout(),
		PTO:              m.pto,
		MaxPTOs:          m.maxPTOs,
		MaxPTOBackoff:    4 * m.pto,
	}
}

// Refusing returns a copy of d that opens no socket: every dial fails
// with err. A mode classifies the targets a cancelled scan never
// started through it, so their records are the mode's own for a target
// it could not reach, and name the context error.
func (d Dialer) Refusing(err error) Dialer {
	d.DialPacket = func() (net.PacketConn, error) { return nil, err }
	return d
}

// Dial opens a fresh socket and completes one handshake with t. The
// socket is returned for scenarios that act on it (a rebind); it
// belongs to the connection and closes with it, also when Dial fails.
func (d Dialer) Dial(ctx context.Context, t Target, cfg *quic.Config) (*quic.Conn, net.PacketConn, error) {
	pc, err := d.DialPacket()
	if err != nil {
		return nil, nil, err
	}
	dctx, cancel := context.WithTimeout(ctx, cfg.HandshakeTimeout+time.Second)
	defer cancel()
	conn, err := quic.Dial(dctx, pc, net.UDPAddrFromAddrPort(t.Addr), cfg)
	return conn, pc, err
}
