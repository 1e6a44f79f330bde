// Package probe is the engine under the behavioural scan modes
// (internal/fingerprint, internal/migration, internal/resumption). It
// owns what they share — the target type, the dialer with its TLS and
// quic.Config defaults, the order-preserving worker pool, the
// per-mode target and verdict counters, and the NDJSON verdict
// stream — so that a mode is only its scenario function, its verdict
// names and its result type.
package probe

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/json"
	"net"
	"net/netip"
	"os"
	"sync"
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

// Run classifies every target with fn on at most workers goroutines
// (default 8) and returns the results in input order. fn is called
// for every target even after ctx is cancelled, so every slot holds a
// real result; a cancelled ctx makes fn itself return promptly.
func Run[R any](ctx context.Context, workers int, targets []Target, fn func(context.Context, Target) R) []R {
	if workers <= 0 {
		workers = 8
	}
	out := make([]R, len(targets))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, t := range targets {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = fn(ctx, t)
		}()
	}
	wg.Wait()
	return out
}

// WriteNDJSON writes one JSON line per record to the file at path, or
// to standard output when path is empty. Every failure — create,
// encode, flush, close — is returned: a short verdict stream must not
// look like a finished scan.
func WriteNDJSON[R any](path string, records []R) error {
	out := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		out = f
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	var err error
	for _, r := range records {
		if err = enc.Encode(r); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if path != "" {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
