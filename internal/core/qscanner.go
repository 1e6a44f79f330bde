// Package core implements the QScanner, the paper's primary
// contribution (Section 3.4): a stateful QUIC scanner that completes
// full handshakes with targets — IP addresses alone or combined with a
// domain used as SNI — and extracts everything the analysis needs:
//
//   - handshake outcome classification (Success / Timeout / the
//     generic crypto error 0x128 / Version Mismatch / Other),
//   - TLS properties (version, cipher, key exchange group,
//     certificates, extension set) for the QUIC-vs-TCP comparison,
//   - the server's QUIC transport parameters and their configuration
//     fingerprint, and
//   - HTTP/3 response headers from a HEAD request (Server header).
package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"quicscan/internal/certgen"
	"quicscan/internal/h3"
	"quicscan/internal/listscan"
	"quicscan/internal/quic"
	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
	"quicscan/internal/transportparams"
)

// Registry metrics for the scanning layer (the core_* family): scan
// attempts, retry pressure, outcome distribution and the per-target
// handshake latency histogram the paper's timeout analysis needs.
var (
	mScanAttempts  = telemetry.Default().Counter("core_scan_attempts_total")
	mScanRetries   = telemetry.Default().Counter("core_scan_retries_total")
	mScanTargets   = telemetry.Default().Counter("core_scan_targets_total")
	mScanOutcomes  = telemetry.Default().CounterVec("core_scan_outcomes_total", "outcome")
	mScanSourced   = telemetry.Default().CounterVec("core_scan_success_by_source_total", "source")
	mHandshakeMs   = telemetry.Default().Histogram("core_handshake_ms", telemetry.LatencyBucketsMs())
	mCertCacheHits = telemetry.Default().Counter("core_certcache_hits_total")
	mCertCacheMiss = telemetry.Default().Counter("core_certcache_misses_total")
)

// Target identifies one scan destination: an address, optionally
// paired with a domain to use as SNI.
type Target struct {
	Addr netip.Addr `json:"addr"`
	Port uint16     `json:"port"`
	// SNI is the domain used for Server Name Indication; empty for
	// "no SNI" scans.
	SNI string `json:"sni,omitempty"`
	// Source records which discovery method produced the target
	// ("zmap", "alt-svc", "https-rr").
	Source string `json:"source,omitempty"`
}

func (t Target) port() uint16 {
	if t.Port == 0 {
		return 443
	}
	return t.Port
}

// Outcome classifies a connection attempt, matching the rows of the
// paper's Table 3.
type Outcome string

const (
	OutcomeSuccess         Outcome = "success"
	OutcomeTimeout         Outcome = "timeout"
	OutcomeCryptoError     Outcome = "crypto_error_0x128"
	OutcomeVersionMismatch Outcome = "version_mismatch"
	OutcomeOther           Outcome = "other"
)

// TLSInfo captures the TLS properties of a successful handshake.
type TLSInfo struct {
	Version          uint16   `json:"version"`
	CipherSuite      uint16   `json:"cipher_suite"`
	KeyExchangeGroup string   `json:"key_exchange_group"`
	ALPN             string   `json:"alpn"`
	CertFingerprint  string   `json:"cert_fingerprint"`
	CertCommonName   string   `json:"cert_common_name"`
	CertDNSNames     []string `json:"cert_dns_names,omitempty"`
	CertValid        bool     `json:"cert_valid"`
	SelfSigned       bool     `json:"self_signed"`
	// Extensions is the canonical observed extension set (see
	// ExtensionSet); the QUIC transport_parameters extension is
	// excluded to keep QUIC and TCP observations comparable, as in the
	// paper's Table 5.
	Extensions []string `json:"extensions"`
}

// HTTPInfo captures the HTTP/3 exchange.
type HTTPInfo struct {
	RequestOK bool              `json:"request_ok"`
	Status    string            `json:"status,omitempty"`
	Server    string            `json:"server,omitempty"`
	AltSvc    string            `json:"alt_svc,omitempty"`
	Headers   map[string]string `json:"headers,omitempty"`
}

// Result is the complete record for one target.
type Result struct {
	Target  Target  `json:"target"`
	Outcome Outcome `json:"outcome"`
	Error   string  `json:"error,omitempty"`

	QUICVersion        string   `json:"quic_version,omitempty"`
	VersionNegotiation bool     `json:"version_negotiation,omitempty"`
	ServerVersions     []string `json:"server_versions,omitempty"`
	Retried            bool     `json:"retried,omitempty"`

	// Resumption facts, populated on dials through a SessionCache.
	Resumed         bool `json:"resumed,omitempty"`
	ZeroRTTOffered  bool `json:"zero_rtt_offered,omitempty"`
	ZeroRTTAccepted bool `json:"zero_rtt_accepted,omitempty"`
	ZeroRTTRejected bool `json:"zero_rtt_rejected,omitempty"`

	TLS             *TLSInfo                    `json:"tls,omitempty"`
	TransportParams *transportparams.Parameters `json:"transport_params,omitempty"`
	TPFingerprint   string                      `json:"tp_fingerprint,omitempty"`
	HTTP            *HTTPInfo                   `json:"http,omitempty"`

	HandshakeMillis float64 `json:"handshake_ms,omitempty"`

	// Attempts is how many handshake attempts the target consumed
	// (1 = answered first try; >1 = recovered or exhausted retries).
	Attempts int `json:"attempts,omitempty"`
	// Retransmits counts PTO-driven retransmission rounds across the
	// final attempt's connection — the paper's timeout analysis needs
	// the distinction between clean and repaired handshakes.
	Retransmits int `json:"retransmits,omitempty"`
}

// Scanner is a stateful QUIC scanner.
type Scanner struct {
	// DialPacket opens the client socket for one connection; defaults
	// to a kernel UDP socket. The simulated Internet substitutes its
	// own dialer.
	DialPacket func() (net.PacketConn, error)
	// Versions offered, most preferred first; defaults to the
	// QScanner-compatible set (drafts 29/32/34 and version 1).
	Versions []quicwire.Version
	// RootCAs validates server certificates. Validation failures are
	// recorded, not fatal: the scanner always captures the
	// certificate.
	RootCAs *x509.CertPool
	// Timeout bounds each connection attempt (default 3s).
	Timeout time.Duration
	// Retries is how many additional attempts a target that timed out
	// gets (default 0: single attempt). Only silence is retried —
	// version mismatches, crypto errors and refusals are definitive
	// answers. This is the ZMap loss-tolerance pattern applied to the
	// stateful scanner.
	Retries int
	// RetryBackoff is the pause before the first retry, doubling each
	// further attempt (default 200ms).
	RetryBackoff time.Duration
	// PTO overrides the per-connection retransmission timeout
	// (default: the quic package's 150ms).
	PTO time.Duration
	// MaxPTOs overrides the per-connection retransmission budget
	// (default 6; negative disables in-handshake retransmission).
	MaxPTOs int
	// Workers is the parallelism of Scan (default 64).
	Workers int
	// PoolSize is how many UDP sockets the shared transport opens
	// (default 2, on every host). Each target is dialed from the socket
	// its address hashes to, so under one seed a target leaves from the
	// same source port whatever the core count or the dial order. All
	// concurrent handshakes are multiplexed over this fixed pool by
	// connection ID, so socket consumption is independent of target
	// count and worker count. The pool bounds sockets, not receive
	// parallelism: a socket's read loop only routes, and up to
	// GOMAXPROCS executors run the connections' receive work.
	PoolSize int
	// SkipHTTP disables the HTTP/3 HEAD request.
	SkipHTTP bool
	// SessionCache, when non-nil, is shared by every dial: first visits
	// store TLS session tickets and NEW_TOKEN tokens, and rescans of
	// the same target resume, turning the second pass of a campaign
	// into abbreviated handshakes. When a rescan holds 0-RTT keys, the
	// HTTP/3 request is sent as early data before the handshake
	// completes. See quic.Config.SessionCache.
	SessionCache *quic.SessionCache
	// Tracer, when non-nil, writes a qlog-style JSON-seq trace file per
	// connection attempt (see internal/telemetry and the -qlog-dir
	// flag). Nil disables tracing at zero cost.
	Tracer *telemetry.Tracer

	mu sync.Mutex
	tr *quic.Transport

	certs ChainMemo
}

// ChainMemo memoizes x509 chain verification by (chain, SNI) digest.
// Scans see the same few CDN chains tens of thousands of times;
// verifying each chain once amortizes the signature checks across the
// campaign. The root pool is not part of the key: one memo serves one
// pool. The zero value is ready to use, and safe for concurrent use.
type ChainMemo struct {
	mu    sync.Mutex
	valid map[certCacheKey]bool
}

// certCacheKey identifies a (certificate chain, SNI) verification
// question: the SHA-256 over the chain's raw DER plus the name checked.
type certCacheKey [sha256.Size]byte

// defaultPoolSize is PoolSize's default: a constant, not the core count.
const defaultPoolSize = 2

func (s *Scanner) poolSize() int {
	if s.PoolSize > 0 {
		return s.PoolSize
	}
	return defaultPoolSize
}

// sharedTransport lazily opens the scanner's socket pool. The
// Transport owns the sockets; Close releases them.
func (s *Scanner) sharedTransport() (*quic.Transport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tr != nil {
		return s.tr, nil
	}
	n := s.poolSize()
	pconns := make([]net.PacketConn, 0, n)
	for i := 0; i < n; i++ {
		pc, err := s.dial()
		if err != nil {
			for _, opened := range pconns {
				opened.Close()
			}
			return nil, err
		}
		pconns = append(pconns, pc)
	}
	tr, err := quic.NewTransport(pconns...)
	if err != nil {
		for _, opened := range pconns {
			opened.Close()
		}
		return nil, err
	}
	s.tr = tr
	return tr, nil
}

// Close releases the scanner's socket pool. The scanner is reusable:
// the next ScanTarget opens a fresh pool.
func (s *Scanner) Close() error {
	s.mu.Lock()
	tr := s.tr
	s.tr = nil
	s.mu.Unlock()
	if tr == nil {
		return nil
	}
	return tr.Close()
}

// TransportStats reports the shared transport's routing counters, and
// whether a transport has been opened at all.
func (s *Scanner) TransportStats() (quic.TransportStats, bool) {
	s.mu.Lock()
	tr := s.tr
	s.mu.Unlock()
	if tr == nil {
		return quic.TransportStats{}, false
	}
	return tr.Stats(), true
}

// onlyX25519 and alpn, the ALPN values offered (h3 and its draft
// variants), are shared by every scan; tls.Config users treat both as
// read-only.
var (
	onlyX25519 = []tls.CurveID{tls.X25519}
	alpn       = []string{"h3", "h3-34", "h3-32", "h3-29"}
)

func (s *Scanner) timeout() time.Duration {
	if s.Timeout == 0 {
		return 3 * time.Second
	}
	return s.Timeout
}

func (s *Scanner) dial() (net.PacketConn, error) {
	if s.DialPacket != nil {
		return s.DialPacket()
	}
	return net.ListenPacket("udp", ":0")
}

func (s *Scanner) retryBackoff() time.Duration {
	if s.RetryBackoff > 0 {
		return s.RetryBackoff
	}
	return 200 * time.Millisecond
}

// ScanTarget attempts a full QUIC handshake plus an HTTP/3 HEAD
// request against one target, re-probing silent targets up to Retries
// times with exponential backoff. Each attempt's handshake is bounded
// by Timeout, the connection's own deadline, and only a timed-out
// handshake is retried. A completed handshake's HEAD request then gets
// a Timeout of its own, so the worst case per target is
// (Retries+2)*Timeout plus backoff pauses ((Retries+1)*Timeout with
// SkipHTTP). A ctx that ends mid-dial aborts it, and the target is
// OutcomeOther with the context's error, not a timeout.
func (s *Scanner) ScanTarget(ctx context.Context, t Target) Result {
	mScanTargets.Inc()
	backoff := s.retryBackoff()
	var res Result
	for attempt := 1; ; attempt++ {
		res = s.scanOnce(ctx, t)
		res.Attempts = attempt
		if res.Outcome != OutcomeTimeout || attempt > s.Retries {
			return s.finishTarget(res)
		}
		select {
		case <-ctx.Done():
			return s.finishTarget(res)
		case <-time.After(backoff):
		}
		backoff *= 2
		mScanRetries.Inc()
	}
}

// finishTarget records the final (post-retry) per-target outcome in
// the registry, mirroring the paper's Table 3 tally.
func (s *Scanner) finishTarget(res Result) Result {
	mScanOutcomes.With(string(res.Outcome)).Inc()
	if res.Outcome == OutcomeSuccess {
		src := res.Target.Source
		if src == "" {
			src = "unknown"
		}
		mScanSourced.With(src).Inc()
	}
	return res
}

// scanOnce runs one connection attempt.
func (s *Scanner) scanOnce(ctx context.Context, t Target) Result {
	mScanAttempts.Inc()
	res := Result{Target: t}

	tr, err := s.sharedTransport()
	if err != nil {
		res.Outcome = OutcomeOther
		res.Error = err.Error()
		return res
	}

	tlsCfg := &tls.Config{
		ServerName: t.SNI,
		NextProtos: alpn,
		RootCAs:    s.RootCAs,
		// The scanner must record certificates even when verification
		// fails; validity is checked explicitly below.
		InsecureSkipVerify: true,
		// Offer only X25519 so the negotiated key exchange group is
		// known (the paper's scans did the same, Section 5.1).
		CurvePreferences: onlyX25519,
		// Pinned here so the QUIC layer can use the config as-is
		// instead of cloning it per dial (QUIC mandates 1.3 anyway).
		MinVersion: tls.VersionTLS13,
	}

	// TransportParams stays unset: the quic layer substitutes
	// DefaultClientParams and takes its precomputed-template encode
	// path, skipping a full parameter marshal per dial.
	cfg := &quic.Config{
		TLS:              tlsCfg,
		Versions:         s.Versions,
		HandshakeTimeout: s.timeout(),
		PTO:              s.PTO,
		MaxPTOs:          s.MaxPTOs,
		Tracer:           s.Tracer,
		SessionCache:     s.SessionCache,
	}

	// No per-target context here: the QUIC layer enforces
	// cfg.HandshakeTimeout itself, and the HTTP phase below scopes its
	// own deadline. A derived context per target would only add
	// allocations on the hot path.
	dial := tr.Dial
	if s.SessionCache != nil {
		// With a cache, a rescan that holds 0-RTT keys returns before
		// the handshake completes so the HTTP request can ride in early
		// data; a first visit degrades to the blocking dial.
		dial = tr.DialEarly
	}
	conn, err := dial(ctx, net.UDPAddrFromAddrPort(netip.AddrPortFrom(t.Addr, t.port())), cfg)
	if err != nil {
		res.Outcome, res.Error = classify(err)
		var vne *quic.VersionNegotiationError
		if errors.As(err, &vne) {
			res.VersionNegotiation = true
			for _, v := range vne.Server {
				res.ServerVersions = append(res.ServerVersions, v.String())
			}
		}
		return res
	}
	defer conn.Close()

	if conn.EarlyDataOffered() && !s.SkipHTTP {
		// 0-RTT fast path: fire the HEAD request now, while only early
		// keys exist, so it leaves in 0-RTT packets. The response
		// arrives once the handshake settles, so doHTTP doubles as the
		// handshake wait.
		httpCtx, cancel := context.WithTimeout(ctx, s.timeout())
		res.HTTP = s.doHTTP(httpCtx, conn, t)
		cancel()
	}
	if err := conn.HandshakeComplete(ctx); err != nil {
		res.Outcome, res.Error = classify(err)
		return res
	}

	res.Outcome = OutcomeSuccess
	res.Resumed = conn.Resumed()
	res.ZeroRTTOffered = conn.EarlyDataOffered()
	res.ZeroRTTAccepted = conn.EarlyDataAccepted()
	res.ZeroRTTRejected = conn.EarlyDataRejected()
	st := conn.Stats()
	res.QUICVersion = conn.Version().String()
	res.VersionNegotiation = st.VersionNegotiation
	for _, v := range st.ServerVersions {
		res.ServerVersions = append(res.ServerVersions, v.String())
	}
	res.Retried = st.Retried
	res.Retransmits = st.Retransmits
	res.HandshakeMillis = float64(st.HandshakeDuration.Microseconds()) / 1000
	mHandshakeMs.Observe(res.HandshakeMillis)

	cs := conn.ConnectionState()
	res.TLS = s.certs.TLSInfo(&cs, t.SNI, s.RootCAs)

	if params, ok := conn.PeerTransportParameters(); ok {
		p := params
		res.TransportParams = &p
		res.TPFingerprint = p.Fingerprint()
	}

	if !s.SkipHTTP && res.HTTP == nil {
		httpCtx, cancel := context.WithTimeout(ctx, s.timeout())
		res.HTTP = s.doHTTP(httpCtx, conn, t)
		cancel()
	}
	return res
}

func classify(err error) (Outcome, string) {
	var vne *quic.VersionNegotiationError
	if errors.As(err, &vne) {
		return OutcomeVersionMismatch, err.Error()
	}
	if errors.Is(err, quic.ErrHandshakeTimeout) || errors.Is(err, context.DeadlineExceeded) {
		return OutcomeTimeout, err.Error()
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return OutcomeTimeout, err.Error()
	}
	var terr *quicwire.TransportErrorError
	if errors.As(err, &terr) {
		if terr.Code == quicwire.CryptoError0x128 {
			return OutcomeCryptoError, err.Error()
		}
		return OutcomeOther, err.Error()
	}
	return OutcomeOther, err.Error()
}

// TLSInfo extracts the TLS facts of a completed handshake, over QUIC or
// TCP, verifying the chain for sni against roots (if not nil) through
// the memo.
func (m *ChainMemo) TLSInfo(cs *tls.ConnectionState, sni string, roots *x509.CertPool) *TLSInfo {
	info := &TLSInfo{
		Version:     cs.Version,
		CipherSuite: cs.CipherSuite,
		ALPN:        cs.NegotiatedProtocol,
		// Only X25519 is offered (see ScanTarget), so a completed
		// TLS 1.3 handshake used it.
		KeyExchangeGroup: "X25519",
		Extensions:       ExtensionSet(cs.NegotiatedProtocol != "", sni != ""),
	}
	if cs.Version < tls.VersionTLS13 {
		// Pre-1.3 key exchange is not pinned by CurvePreferences the
		// same way (TLS over TCP only); record the unknown.
		info.KeyExchangeGroup = "pre-TLS1.3"
	}
	if len(cs.PeerCertificates) > 0 {
		leaf := cs.PeerCertificates[0]
		info.CertFingerprint = certgen.FingerprintOf(leaf)
		info.CertCommonName = leaf.Subject.CommonName
		info.CertDNSNames = leaf.DNSNames
		info.SelfSigned = isSelfSigned(leaf)
		if roots != nil {
			info.CertValid = m.verify(roots, cs.PeerCertificates, sni)
		}
	}
	return info
}

// verify reports whether chain (leaf first) verifies for sni against
// roots, running the signature checks once per distinct (chain, SNI).
func (m *ChainMemo) verify(roots *x509.CertPool, chain []*x509.Certificate, sni string) bool {
	h := sha256.New()
	for _, c := range chain {
		h.Write(c.Raw)
	}
	h.Write([]byte(sni))
	var key certCacheKey
	h.Sum(key[:0])

	m.mu.Lock()
	valid, ok := m.valid[key]
	m.mu.Unlock()
	if ok {
		mCertCacheHits.Inc()
		return valid
	}
	mCertCacheMiss.Inc()

	leaf := chain[0]
	opts := x509.VerifyOptions{Roots: roots, DNSName: sni}
	for _, ic := range chain[1:] {
		if opts.Intermediates == nil {
			opts.Intermediates = x509.NewCertPool()
		}
		opts.Intermediates.AddCert(ic)
	}
	_, err := leaf.Verify(opts)
	valid = err == nil

	m.mu.Lock()
	if m.valid == nil || len(m.valid) >= 8192 {
		// Reset rather than evict: the working set is tiny; the cap
		// only guards against adversarial chain diversity.
		m.valid = make(map[certCacheKey]bool)
	}
	m.valid[key] = valid
	m.mu.Unlock()
	return valid
}

// isSelfSigned reports whether leaf is genuinely self-signed: the
// issuer and subject distinguished names must match byte-for-byte AND
// the certificate's signature must verify under its own public key.
// Comparing CommonName strings is wrong on both axes: two unrelated
// certificates with empty CNs compare equal, and a CA sharing its
// subject CN with the leaf compares equal too. CheckSignature is used
// rather than CheckSignatureFrom because the latter also enforces CA
// basic constraints, which self-signed leaf certificates rarely carry.
func isSelfSigned(leaf *x509.Certificate) bool {
	if !bytes.Equal(leaf.RawIssuer, leaf.RawSubject) {
		return false
	}
	return leaf.CheckSignature(leaf.SignatureAlgorithm, leaf.RawTBSCertificate, leaf.Signature) == nil
}

// ExtensionSet is the canonical observed TLS extension list used for
// the QUIC vs TLS-over-TCP comparison (Table 5). The standard library
// does not expose raw extensions, so the set is reconstructed from
// handshake facts: ALPN presence and whether an SNI was sent. The
// QUIC transport_parameters extension is deliberately excluded, as in
// the paper.
func ExtensionSet(alpnNegotiated, sniSent bool) []string {
	ext := []string{"key_share", "supported_versions"}
	if alpnNegotiated {
		ext = append(ext, "application_layer_protocol_negotiation")
	}
	if sniSent {
		ext = append(ext, "server_name")
	}
	sort.Strings(ext)
	return ext
}

func (s *Scanner) doHTTP(ctx context.Context, conn *quic.Conn, t Target) *HTTPInfo {
	info := &HTTPInfo{}
	hc, err := h3.NewClientConn(conn)
	if err != nil {
		return info
	}
	authority := t.SNI
	if authority == "" {
		authority = t.Addr.String()
	}
	resp, err := hc.RoundTrip(ctx, "HEAD", authority, "/", nil)
	if err != nil {
		return info
	}
	info.RequestOK = true
	info.Status = resp.Status
	info.Server = resp.Header("server")
	info.AltSvc = resp.Header("alt-svc")
	info.Headers = make(map[string]string, len(resp.Headers))
	for _, f := range resp.Headers {
		if f.Name != ":status" {
			info.Headers[f.Name] = f.Value
		}
	}
	return info
}

// Scan runs ScanTarget over all targets on Workers goroutines and
// returns the results in input order.
func (s *Scanner) Scan(ctx context.Context, targets []Target) []Result {
	return s.Stream(ctx, targets, nil)
}

// Stream is Scan with the results also handed to emit, in input order
// and while later targets are still in flight (listscan.Run's
// contract). A target not yet started when ctx ends is not dialled: its
// result is OutcomeOther with the context error.
func (s *Scanner) Stream(ctx context.Context, targets []Target, emit func([]Result)) []Result {
	return listscan.Run(ctx, s.Workers, len(targets),
		func(_, i int) Result { return s.ScanTarget(ctx, targets[i]) },
		func(i int, err error) Result {
			return Result{Target: targets[i], Outcome: OutcomeOther, Error: err.Error()}
		}, emit)
}

// Summary tallies outcomes, the paper's Table 3 row shape.
type Summary struct {
	Total           int
	Success         int
	Timeout         int
	CryptoError     int
	VersionMismatch int
	Other           int
}

// Summarize tallies results.
func Summarize(results []Result) Summary {
	var s Summary
	s.Total = len(results)
	for _, r := range results {
		switch r.Outcome {
		case OutcomeSuccess:
			s.Success++
		case OutcomeTimeout:
			s.Timeout++
		case OutcomeCryptoError:
			s.CryptoError++
		case OutcomeVersionMismatch:
			s.VersionMismatch++
		default:
			s.Other++
		}
	}
	return s
}

// Rate returns share of outcome o in percent.
func (s Summary) Rate(o Outcome) float64 {
	if s.Total == 0 {
		return 0
	}
	n := 0
	switch o {
	case OutcomeSuccess:
		n = s.Success
	case OutcomeTimeout:
		n = s.Timeout
	case OutcomeCryptoError:
		n = s.CryptoError
	case OutcomeVersionMismatch:
		n = s.VersionMismatch
	case OutcomeOther:
		n = s.Other
	}
	return 100 * float64(n) / float64(s.Total)
}

// String renders the summary like the paper's Table 3 cells.
func (s Summary) String() string {
	return fmt.Sprintf("total=%d success=%.2f%% timeout=%.2f%% crypto0x128=%.2f%% version_mismatch=%.2f%% other=%.2f%%",
		s.Total, s.Rate(OutcomeSuccess), s.Rate(OutcomeTimeout), s.Rate(OutcomeCryptoError),
		s.Rate(OutcomeVersionMismatch), s.Rate(OutcomeOther))
}
