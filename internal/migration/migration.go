// Package migration implements the migration-support scan mode: it
// classifies how a QUIC deployment behaves when its peer's address
// changes mid-connection. The paper's passive angle — reading
// disable_active_migration out of the transport parameters — only
// reveals what a deployment advertises; this prober additionally
// rebinds the client socket mid-connection (a simulated NAT rebind)
// and watches whether the server validates the new path
// (PATH_CHALLENGE), resumes traffic to it, ignores it, or validates
// it and then tears the connection down.
package migration

import (
	"context"
	"encoding/json"
	"net/netip"
	"time"

	"quicscan/internal/listscan"
	"quicscan/internal/probe"
	"quicscan/internal/telemetry"
)

// Verdict names. The behavioral classes mirror
// quic.MigrationPolicy.String() so simulated ground truth and scan
// output compare directly; the tp-* classes are the low-confidence
// fallback when the socket cannot rebind (plain kernel sockets) and
// only the advertised transport parameter is observable.
const (
	VerdictSupported     = "supported"
	VerdictDisabled      = "disabled"
	VerdictValidateBreak = "validate-break"
	VerdictUnreachable   = probe.VerdictUnreachable
	VerdictTPAllows      = "tp-allows"
	VerdictTPDisabled    = "tp-disabled"
)

// Six 100ms PTOs: after the rebind the ping must keep being resent
// while the server validates the new path.
var mode = probe.NewMode("migration", 100*time.Millisecond, 6)

// Registry metrics of the migration scan beyond the engine-owned
// migration_targets_total and migration_verdicts_total.
var (
	mRebinds    = telemetry.Default().Counter("migration_rebinds_total")
	mTPMismatch = telemetry.Default().Counter("migration_tp_mismatch_total")
)

// Rebinder is the optional capability the behavioral probe needs: a
// socket that can atomically move to a fresh source address while
// keeping its receive path (simnet.PacketConn implements it; kernel
// UDP sockets do not, and such targets fall back to a tp-* verdict).
type Rebinder interface {
	Rebind() (netip.AddrPort, error)
}

// Result is the outcome for one target.
type Result struct {
	Target  probe.Target
	Verdict string
	// TPDisabled records the advertised disable_active_migration
	// transport parameter (false when the handshake failed).
	TPDisabled bool
	// Challenges counts PATH_CHALLENGE frames the client received
	// after the rebind: >0 means the server at least started path
	// validation toward the new address.
	Challenges int
	// Honest is false when the advertised transport parameter
	// contradicts observed behavior (e.g. nginx-style deployments
	// that advertise migration support but silently ignore moved
	// peers). Only meaningful for behavioral verdicts.
	Honest bool
	// Err carries the terminal error for unreachable targets.
	Err string
}

// MarshalJSON renders the NDJSON verdict line of the -migration scan
// modes.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Addr       string `json:"addr"`
		SNI        string `json:"sni,omitempty"`
		Verdict    string `json:"verdict"`
		TPDisabled bool   `json:"tp_disabled"`
		Challenges int    `json:"challenges"`
		Honest     bool   `json:"honest"`
		Err        string `json:"err,omitempty"`
	}{
		Addr:       r.Target.Addr.Addr().String(),
		SNI:        r.Target.SNI,
		Verdict:    r.Verdict,
		TPDisabled: r.TPDisabled,
		Challenges: r.Challenges,
		Honest:     r.Honest,
		Err:        r.Err,
	})
}

// Prober runs the migration scan. One Prober is safe for concurrent
// use.
type Prober struct {
	// Dialer opens a fresh socket per target. When the socket
	// implements Rebinder the full behavioral probe runs; otherwise
	// only the transport parameter is read.
	probe.Dialer

	// MigrateWait bounds the post-rebind round trip: how long the
	// prober waits for traffic to resume on the new path before
	// declaring the deployment migration-hostile (default 3s).
	MigrateWait time.Duration
}

func (p *Prober) migrateWait() time.Duration {
	if p.MigrateWait > 0 {
		return p.MigrateWait
	}
	return 3 * time.Second
}

// Probe classifies one target.
func (p *Prober) Probe(ctx context.Context, t probe.Target) Result {
	res := Result{Target: t, Honest: true}
	res.Verdict, res.Err = mode.Settle(p.scenario(ctx, t, &res))
	if !res.Honest {
		mTPMismatch.Inc()
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

// scenario runs the rebind exchange, recording its observations in
// res. It returns the verdict, or the error that ended the exchange
// before one was reached.
func (p *Prober) scenario(ctx context.Context, t probe.Target, res *Result) (string, error) {
	conn, pc, err := p.Dial(ctx, t, p.Config(mode, t))
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if tp, ok := conn.PeerTransportParameters(); ok {
		res.TPDisabled = tp.DisableActiveMigration
	}

	rb, ok := pc.(Rebinder)
	if !ok {
		// Kernel sockets cannot move mid-connection; the advertised
		// transport parameter is the only signal.
		if res.TPDisabled {
			return VerdictTPDisabled, nil
		}
		return VerdictTPAllows, nil
	}

	// A confirmed round trip first: the rebind must be unambiguously
	// post-handshake on the server, or address adoption (legal during
	// the handshake, RFC 9000 Section 8.1) masquerades as migration
	// support.
	pctx, cancel := context.WithTimeout(ctx, p.migrateWait())
	err = conn.Ping(pctx)
	cancel()
	if err != nil {
		return "", err
	}

	before := conn.Stats().PathChallengesReceived
	if _, err := rb.Rebind(); err != nil {
		return "", err
	}
	mRebinds.Inc()

	// The ping now leaves from the fresh address. Its ACK initially
	// flows to the dead old path, so success requires the server to
	// validate and promote the new one; the PTO schedule resends the
	// ping until that happens or the wait expires.
	pctx, cancel = context.WithTimeout(ctx, p.migrateWait())
	err = conn.Ping(pctx)
	if err == nil {
		// A teardown can race the final ACK out of the server: the
		// flight that validates the path may acknowledge the ping
		// right before the CONNECTION_CLOSE lands. A confirmation
		// round trip on the promoted path separates survived from
		// validated-then-dropped.
		err = conn.Ping(pctx)
	}
	cancel()
	res.Challenges = conn.Stats().PathChallengesReceived - before

	switch {
	case err == nil:
		res.Honest = !res.TPDisabled
		return VerdictSupported, nil
	case res.Challenges > 0:
		// The server began path validation, yet traffic never
		// resumed: it validates the client and then drops it.
		res.Honest = !res.TPDisabled
		return VerdictValidateBreak, nil
	default:
		res.Honest = res.TPDisabled
		return VerdictDisabled, nil
	}
}
