package fingerprint

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"time"

	"quicscan/internal/listscan"
	"quicscan/internal/probe"
	"quicscan/internal/quic"
	"quicscan/internal/quicwire"
	"quicscan/internal/transportparams"
)

// probeVersion is the reserved version the raw VN and padding probes
// offer. It is deliberately distinct from the ZMap module's
// ForcedNegotiationVersion so that grease-version quirks (which key on
// "some reserved version other than the classic scanner's") are
// exercised without perturbing the ZMap sweep's calibrated answers.
const probeVersion quicwire.Version = 0x2a3a4a5a

// greaseTPID is a reserved transport parameter identifier of the form
// 31*N+27 (RFC 9000, Section 18.1; N=173), which a conforming peer
// must ignore.
const greaseTPID = 31*173 + 27

// probeSizePadded / probeSizeUnpadded are the raw probe datagram
// sizes: the RFC 9000 Section 14.1 client Initial minimum, and a
// deliberately undersized variant only non-conforming stacks answer.
const (
	probeSizePadded   = 1200
	probeSizeUnpadded = 64
)

// resetProbeSize is the orphan short-header datagram length for the
// stateless reset scenario: large enough that a conforming peer may
// answer (its reset must be strictly shorter), small enough to be
// cheap.
const resetProbeSize = 50

// The handshake scenarios fail fast: three 60ms PTOs turn "forged
// token silently dropped" into a bounded observation instead of a
// full handshake timeout.
var mode = probe.NewMode("fingerprint", 60*time.Millisecond, 3)

// idleAdvertiseMs is the tiny max_idle_timeout the idle scenario
// advertises, in milliseconds; idleWait is how long it then watches
// for an announced teardown.
const (
	idleAdvertiseMs = 200
	idleWait        = 8 * idleAdvertiseMs * time.Millisecond
)

// Result is the outcome of fingerprinting one target.
type Result struct {
	Target  probe.Target
	Matrix  Matrix
	Verdict Verdict
}

// MarshalJSON renders the NDJSON verdict line of the -fingerprint
// scan modes.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Addr     string `json:"addr"`
		SNI      string `json:"sni,omitempty"`
		Matrix   string `json:"matrix"`
		Verdict  string `json:"verdict"`
		Distance int    `json:"distance"`
		Exact    bool   `json:"exact"`
	}{
		Addr:     r.Target.Addr.Addr().String(),
		SNI:      r.Target.SNI,
		Matrix:   r.Matrix.String(),
		Verdict:  r.Verdict.Name,
		Distance: r.Verdict.Distance,
		Exact:    r.Verdict.Exact,
	})
}

// Prober runs the scenario engine against defaultDB. One Prober is
// safe for concurrent use.
type Prober struct {
	// Dialer opens a fresh socket per scenario connection.
	probe.Dialer

	// ProbeWait bounds the raw-probe response wait (default 250ms).
	ProbeWait time.Duration

	// PingWait bounds the post-key-update round trip (default 500ms).
	PingWait time.Duration
}

func (p *Prober) probeWait() time.Duration {
	if p.ProbeWait > 0 {
		return p.ProbeWait
	}
	return 250 * time.Millisecond
}

func (p *Prober) pingWait() time.Duration {
	if p.PingWait > 0 {
		return p.PingWait
	}
	return 500 * time.Millisecond
}

// Fingerprint runs every scenario against one target and classifies
// the observed matrix. Scenarios run concurrently: each uses its own
// socket (and, for handshake scenarios, its own connection), so they
// cannot contaminate one another.
func (p *Prober) Fingerprint(ctx context.Context, t probe.Target) Result {
	var m Matrix
	var wg sync.WaitGroup
	run := func(s scenario, f func(context.Context, probe.Target) string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mScenarioRuns[s].Inc()
			m[s] = f(ctx, t)
		}()
	}
	run(scenarioVN, p.probeVN)
	run(scenarioPadding, p.probePadding)
	run(scenarioRetry, p.probeRetry)
	run(scenarioReset, p.probeReset)
	run(scenarioKeyUpdate, p.probeKeyUpdate)
	run(scenarioGreaseTP, p.probeGreaseTP)
	run(scenarioIdle, p.probeIdle)
	wg.Wait()
	v := defaultDB().match(m)
	mode.Settle(v.Name, nil)
	switch {
	case v.Name == verdictUnknown:
		mUnknown.Inc()
	case v.Exact:
		mExact.Inc()
	}
	return Result{Target: t, Matrix: m, Verdict: v}
}

// Scan classifies every target through listscan.Run: at most workers
// at a time, results in input order, emit (when non-nil) fed while the
// scan runs. A target not yet started when ctx ends is not dialled: it
// is classified through a Dialer that refuses with the context error.
func (p *Prober) Scan(ctx context.Context, workers int, targets []probe.Target, emit func([]Result)) []Result {
	return listscan.Run(ctx, workers, len(targets),
		func(_, i int) Result { return p.Fingerprint(ctx, targets[i]) },
		func(i int, err error) Result {
			return (&Prober{Dialer: p.Refusing(err)}).Fingerprint(ctx, targets[i])
		}, emit)
}

// buildRawProbe assembles a ZMap-style forced-VN Initial at
// probeVersion: valid long header, unencrypted padding body. Servers
// must answer the unknown version (or not) before parsing further.
func buildRawProbe(size int, dcid, scid []byte) []byte {
	b := make([]byte, 0, size)
	b = append(b, 0xc0|0x40) // long header, fixed bit, type Initial
	v := uint32(probeVersion)
	b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	b = append(b, byte(len(dcid)))
	b = append(b, dcid...)
	b = append(b, byte(len(scid)))
	b = append(b, scid...)
	b = append(b, 0) // empty token
	rest := size - len(b) - 2
	b = quicwire.AppendVarintWithLen(b, uint64(rest), 2)
	b = append(b, make([]byte, size-len(b))...)
	return b
}

// rawVNExchange sends one raw probe of the given size and classifies
// the answer: cellVNGrease for a VN listing any reserved version,
// cellVN for a plain VN, cellSilent on timeout or socket failure.
func (p *Prober) rawVNExchange(ctx context.Context, t probe.Target, size int) string {
	pc, err := p.DialPacket()
	if err != nil {
		return cellSilent
	}
	defer pc.Close()
	dcid := quicwire.NewRandomConnID(8)
	scid := quicwire.NewRandomConnID(8)
	dgram := buildRawProbe(size, dcid, scid)
	remote := net.UDPAddrFromAddrPort(t.Addr)
	if _, err := pc.WriteTo(dgram, remote); err != nil {
		return cellSilent
	}
	deadline := time.Now().Add(p.probeWait())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	buf := make([]byte, 2048)
	for {
		if err := pc.SetReadDeadline(deadline); err != nil {
			return cellSilent
		}
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return cellSilent
		}
		hdr, _, err := quicwire.ParseLongHeader(buf[:n])
		if err != nil || hdr.Type != quicwire.PacketVersionNegotiation {
			continue
		}
		// The VN answer must echo our IDs swapped (RFC 9000,
		// Section 6.1); anything else is stray traffic.
		if !bytes.Equal(hdr.DstID, scid) || !bytes.Equal(hdr.SrcID, dcid) {
			continue
		}
		for _, v := range hdr.SupportedVersions {
			if v.IsForcedNegotiation() {
				return cellVNGrease
			}
		}
		return cellVN
	}
}

func (p *Prober) probeVN(ctx context.Context, t probe.Target) string {
	return p.rawVNExchange(ctx, t, probeSizePadded)
}

func (p *Prober) probePadding(ctx context.Context, t probe.Target) string {
	return p.rawVNExchange(ctx, t, probeSizeUnpadded)
}

// probeReset sends an orphan 1-RTT-shaped datagram (fixed bit set,
// random connection ID) and watches for a stateless-reset-shaped
// answer: a short-header datagram of at least 21 bytes.
func (p *Prober) probeReset(ctx context.Context, t probe.Target) string {
	pc, err := p.DialPacket()
	if err != nil {
		return cellSilent
	}
	defer pc.Close()
	dgram := make([]byte, resetProbeSize)
	if _, err := rand.Read(dgram[1:]); err != nil {
		return cellSilent
	}
	dgram[0] = 0x40 | (dgram[1] & 0x3f)
	remote := net.UDPAddrFromAddrPort(t.Addr)
	if _, err := pc.WriteTo(dgram, remote); err != nil {
		return cellSilent
	}
	deadline := time.Now().Add(p.probeWait())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	buf := make([]byte, 2048)
	for {
		if err := pc.SetReadDeadline(deadline); err != nil {
			return cellSilent
		}
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return cellSilent
		}
		if n >= 21 && buf[0]&0xc0 == 0x40 {
			return cellReset
		}
	}
}

// forgedToken is the deliberately invalid address validation token the
// Retry scenario replays. Constant so the cell is reproducible.
func forgedToken() []byte {
	tok := make([]byte, 32)
	for i := range tok {
		tok[i] = 0x5a
	}
	return tok
}

// probeRetry dials twice: the first handshake learns whether the
// target performs Retry at all; the second replays a forged token and
// classifies the validator — accepted (lax), explicit INVALID_TOKEN
// close (close), or silent drop until the retransmission budget runs
// out (drop).
func (p *Prober) probeRetry(ctx context.Context, t probe.Target) string {
	conn, _, err := p.Dial(ctx, t, p.Config(mode, t))
	if err != nil {
		return cellSilent
	}
	retried := conn.Stats().Retried
	conn.Close()
	if !retried {
		return cellRetryNone
	}
	cfg := p.Config(mode, t)
	cfg.InitialToken = forgedToken()
	conn2, _, err := p.Dial(ctx, t, cfg)
	if err == nil {
		conn2.Close()
		return cellRetryLax
	}
	var terr *quicwire.TransportErrorError
	if errors.As(err, &terr) && terr.Remote {
		return cellRetryClose
	}
	return cellRetryDrop
}

// probeKeyUpdate completes a handshake, initiates an RFC 9001
// Section 6 key update, and forces a round trip in the new generation.
func (p *Prober) probeKeyUpdate(ctx context.Context, t probe.Target) string {
	conn, _, err := p.Dial(ctx, t, p.Config(mode, t))
	if err != nil {
		return cellSilent
	}
	defer conn.Close()
	if err := conn.UpdateKeys(); err != nil {
		return cellSilent
	}
	pctx, cancel := context.WithTimeout(ctx, p.pingWait())
	defer cancel()
	if err := conn.Ping(pctx); err == nil {
		return cellOK
	}
	var terr *quicwire.TransportErrorError
	if errors.As(conn.Err(), &terr) && terr.Remote {
		return cellClose(uint64(terr.Code))
	}
	return cellSilent
}

// probeGreaseTP offers a reserved transport parameter the peer must
// ignore (RFC 9000, Section 7.4.2) and records whether the handshake
// still completes.
func (p *Prober) probeGreaseTP(ctx context.Context, t probe.Target) string {
	cfg := p.Config(mode, t)
	cfg.TransportParams = quic.DefaultClientParams()
	cfg.TransportParams.Unknown = []transportparams.RawParameter{
		{ID: greaseTPID, Value: []byte{0x2a, 0x2a}},
	}
	conn, _, err := p.Dial(ctx, t, cfg)
	if err == nil {
		conn.Close()
		return cellOK
	}
	var terr *quicwire.TransportErrorError
	if errors.As(err, &terr) && terr.Remote {
		return cellClose(uint64(terr.Code))
	}
	return cellSilent
}

// probeIdle advertises a tiny max_idle_timeout, goes quiet after the
// handshake, and watches whether the peer announces the teardown
// (CONNECTION_CLOSE) or vanishes silently. The local idle limit is
// kept huge so only the peer's timer is under observation.
func (p *Prober) probeIdle(ctx context.Context, t probe.Target) string {
	cfg := p.Config(mode, t)
	cfg.TransportParams = quic.DefaultClientParams()
	cfg.TransportParams.MaxIdleTimeout = idleAdvertiseMs
	cfg.MaxIdleTimeout = time.Hour
	conn, _, err := p.Dial(ctx, t, cfg)
	if err != nil {
		return cellSilent
	}
	timer := time.NewTimer(idleWait)
	defer timer.Stop()
	select {
	case <-conn.Closed():
		var terr *quicwire.TransportErrorError
		if errors.As(conn.Err(), &terr) && terr.Remote {
			return cellClose(uint64(terr.Code))
		}
		return cellSilent
	case <-timer.C:
		conn.Close()
		return cellSilent
	case <-ctx.Done():
		conn.Close()
		return cellSilent
	}
}
