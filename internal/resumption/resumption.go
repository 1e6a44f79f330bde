// Package resumption implements the -resumption scan mode: it
// classifies how a QUIC deployment handles the handshake fast path.
// Each target is dialed twice over one socket. The first dial is a
// full handshake that harvests a session ticket (and, when the server
// performs Retry, a NEW_TOKEN); the second dial attempts resumption
// with 0-RTT early data carrying the HTTP/3 request. The pair of
// observations separates four behavioural classes: servers that
// accept early data, servers that never issue tickets, servers that
// issue tickets but decline 0-RTT, and servers that shrink their
// transport parameters on resumption (the RFC 9000 Section 7.4.1
// downgrade the client must refuse).
package resumption

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"time"

	"quicscan/internal/h3"
	"quicscan/internal/listscan"
	"quicscan/internal/probe"
	"quicscan/internal/quic"
	"quicscan/internal/telemetry"
)

// Verdict names. The behavioural classes mirror
// internet.ResumptionQuirk.String() so simulated ground truth and
// scan output compare directly.
const (
	Verdict0RTT         = "0rtt"
	VerdictNoTicket     = "no-ticket"
	VerdictTicketNo0RTT = "ticket-no-0rtt"
	VerdictDowngrade    = "0rtt-downgrade"
	VerdictUnreachable  = probe.VerdictUnreachable
)

// Six 100ms PTOs, the migration scan's schedule: a lost ticket or
// early-data flight is resent rather than read as a refusal.
var mode = probe.NewMode("resumption", 100*time.Millisecond, 6)

// Registry metrics of the resumption scan beyond the engine-owned
// resumption_targets_total and resumption_verdicts_total.
var (
	mTickets    = telemetry.Default().Counter("resumption_tickets_total")
	mTokenReuse = telemetry.Default().Counter("resumption_token_reuse_total")
)

// Result is the outcome for one target.
type Result struct {
	Target  probe.Target
	Verdict string
	// TicketIssued records whether the first dial yielded a session
	// ticket within TicketWait.
	TicketIssued bool
	// Resumed records whether the second handshake actually resumed
	// (the server's authoritative answer, not the client's attempt).
	Resumed bool
	// ZeroRTTAccepted records whether the server accepted the early
	// data the second dial sent.
	ZeroRTTAccepted bool
	// TokenReused is true when the first dial went through a Retry
	// round trip and the second did not: the NEW_TOKEN the server
	// issued let the rescan skip address validation.
	TokenReused bool
	// RequestOK records whether the HTTP/3 request fired during the
	// second dial completed (informational; the verdict never depends
	// on it).
	RequestOK bool
	// Err carries the terminal error for unreachable targets.
	Err string
}

// MarshalJSON renders the NDJSON verdict line of the -resumption scan
// modes.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Addr        string `json:"addr"`
		SNI         string `json:"sni,omitempty"`
		Verdict     string `json:"verdict"`
		Ticket      bool   `json:"ticket"`
		Resumed     bool   `json:"resumed"`
		ZeroRTT     bool   `json:"zero_rtt"`
		TokenReused bool   `json:"token_reused"`
		RequestOK   bool   `json:"request_ok"`
		Err         string `json:"err,omitempty"`
	}{
		Addr:        r.Target.Addr.Addr().String(),
		SNI:         r.Target.SNI,
		Verdict:     r.Verdict,
		Ticket:      r.TicketIssued,
		Resumed:     r.Resumed,
		ZeroRTT:     r.ZeroRTTAccepted,
		TokenReused: r.TokenReused,
		RequestOK:   r.RequestOK,
		Err:         r.Err,
	})
}

// Prober runs the resumption scan. One Prober is safe for concurrent
// use.
type Prober struct {
	// Dialer opens a fresh socket per target. Both dials to a target
	// share the socket: the NEW_TOKEN a server issues is bound to the
	// client address, so the rescan must leave from the same one.
	probe.Dialer

	// TicketWait bounds how long the prober waits after the first
	// handshake for a session ticket before declaring the deployment
	// ticket-less (default 2s).
	TicketWait time.Duration
}

func (p *Prober) ticketWait() time.Duration {
	if p.TicketWait > 0 {
		return p.TicketWait
	}
	return 2 * time.Second
}

// Probe classifies one target.
func (p *Prober) Probe(ctx context.Context, t probe.Target) Result {
	res := Result{Target: t}
	res.Verdict, res.Err = mode.Settle(p.scenario(ctx, t, &res))
	if res.TokenReused {
		mTokenReuse.Inc()
	}
	return res
}

// Scan classifies every target through listscan.Run: at most workers
// at a time, results in input order, emit (when non-nil) fed while the
// scan runs. A target not yet started when ctx ends is not dialled: it
// is classified through a Dialer that refuses with the context error.
func (p *Prober) Scan(ctx context.Context, workers int, targets []probe.Target, emit func([]Result)) []Result {
	return listscan.Run(ctx, workers, len(targets),
		func(_, i int) Result { return p.Probe(ctx, targets[i]) },
		func(i int, err error) Result {
			return (&Prober{Dialer: p.Refusing(err)}).Probe(ctx, targets[i])
		}, emit)
}

// scenario runs the two dials, recording its observations in res. It
// returns the verdict, or the error that ended the exchange before
// one was reached.
func (p *Prober) scenario(ctx context.Context, t probe.Target, res *Result) (string, error) {
	pc, err := p.DialPacket()
	if err != nil {
		return "", err
	}
	tr, err := quic.NewTransport(pc)
	if err != nil {
		pc.Close()
		return "", err
	}
	defer tr.Close()

	// A per-target cache: the ticket from dial one feeds dial two and
	// nothing else. Cross-target sharing would be wrong anyway — the
	// cache is keyed by SNI and one campaign may scan many addresses
	// behind one name.
	cfg := p.Config(mode, t)
	cfg.SessionCache = quic.NewSessionCache(4)
	remote := net.UDPAddrFromAddrPort(t.Addr)

	// Dial one: full handshake, then wait for a ticket.
	dctx, cancel := context.WithTimeout(ctx, p.Timeout()+time.Second)
	conn, err := tr.Dial(dctx, remote, cfg)
	cancel()
	if err != nil {
		return "", err
	}
	retriedFirst := conn.Stats().Retried
	ticketTimer := time.NewTimer(p.ticketWait())
	select {
	case <-conn.SessionTicketReceived():
		res.TicketIssued = true
		mTickets.Inc()
	case <-ticketTimer.C:
	case <-ctx.Done():
	}
	ticketTimer.Stop()
	conn.Close()
	if !res.TicketIssued {
		return VerdictNoTicket, nil
	}

	// Dial two: attempt resumption, firing the HTTP/3 request as
	// early data. DialEarly returns as soon as 0-RTT keys are
	// derivable, so the request rides the first flight; the verdict
	// waits on the completed handshake, which is where resumption
	// acceptance and the Section 7.4.1 downgrade check settle.
	hctx, cancel := context.WithTimeout(ctx, p.Timeout()+p.ticketWait())
	defer cancel()
	conn, err = tr.DialEarly(hctx, remote, cfg)
	if err != nil {
		return "", err
	}
	defer conn.Close()

	reqDone := make(chan bool, 1)
	go func() { reqDone <- doH3(hctx, conn, t) }()

	err = conn.HandshakeComplete(hctx)
	res.TokenReused = retriedFirst && !conn.Stats().Retried
	switch {
	case errors.Is(err, quic.ErrParameterDowngrade):
		return VerdictDowngrade, err
	case err != nil:
		return "", err
	}
	res.Resumed = conn.Resumed()
	res.ZeroRTTAccepted = conn.EarlyDataAccepted()
	// The request is informational; collect it only while the
	// handshake budget lasts.
	select {
	case ok := <-reqDone:
		res.RequestOK = ok
	case <-hctx.Done():
	}
	if res.Resumed && res.ZeroRTTAccepted {
		return Verdict0RTT, nil
	}
	return VerdictTicketNo0RTT, nil
}

func doH3(ctx context.Context, conn *quic.Conn, t probe.Target) bool {
	hc, err := h3.NewClientConn(conn)
	if err != nil {
		return false
	}
	authority := t.SNI
	if authority == "" {
		authority = t.Addr.String()
	}
	_, err = hc.RoundTrip(ctx, "HEAD", authority, "/", nil)
	return err == nil
}
