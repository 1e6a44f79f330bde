package core

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"math/big"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/certgen"
	"quicscan/internal/h3"
	"quicscan/internal/listscan"
	"quicscan/internal/quic"
	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
	"quicscan/internal/transportparams"
)

// testWorld wires a simnet with configurable QUIC+HTTP/3 servers.
type testWorld struct {
	net  *simnet.Network
	pool *x509.CertPool
	// versions is the Config.Versions of the listeners addServer starts;
	// nil accepts the quic package's default set.
	versions []quicwire.Version
}

func newWorld(t *testing.T) *testWorld {
	t.Helper()
	w := &testWorld{net: simnet.New(simnet.Config{}), pool: x509.NewCertPool()}
	t.Cleanup(w.net.Close)
	return w
}

func serverParams() transportparams.Parameters {
	p := quic.DefaultServerParams()
	p.MaxUDPPayloadSize = 1452
	p.MaxIdleTimeout = 30000
	return p
}

func (w *testWorld) addServer(t *testing.T, addr string, params transportparams.Parameters, policy quic.ServerPolicy, serverHeader string, domains ...string) netip.Addr {
	t.Helper()
	ca, err := certgen.NewCA("ca-" + addr)
	if err != nil {
		t.Fatal(err)
	}
	ca.AddToPool(w.pool)
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: domains})
	if err != nil {
		t.Fatal(err)
	}
	ap := netip.MustParseAddrPort(addr)
	pc, err := w.net.ListenUDP(ap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quic.Config{
		TLS:             &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"h3", "h3-34", "h3-32", "h3-29"}},
		TransportParams: params,
		Versions:        w.versions,
	}
	srv := &h3.Server{Handler: func(req *h3.Request) *h3.Response {
		return &h3.Response{Status: "200", Headers: []h3.HeaderField{{Name: "server", Value: serverHeader}}}
	}}
	l, err := quic.Listen(pc, cfg, policy, srv.ServeConn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return ap.Addr()
}

func newScanner(t *testing.T, w *testWorld) *Scanner {
	s := &Scanner{
		DialPacket: func() (net.PacketConn, error) { return w.net.DialUDP() },
		RootCAs:    w.pool,
		Timeout:    2 * time.Second,
		Workers:    8,
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestScanSuccessWithSNI(t *testing.T) {
	w := newWorld(t)
	params := serverParams()
	addr := w.addServer(t, "192.0.2.10:443", params, quic.ServerPolicy{}, "nginx/1.20.0", "www.example.org")
	s := newScanner(t, w)

	res := s.ScanTarget(context.Background(), Target{Addr: addr, SNI: "www.example.org", Source: "zmap"})
	if res.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s (%s)", res.Outcome, res.Error)
	}
	if res.TLS == nil || res.TLS.Version != tls.VersionTLS13 {
		t.Fatalf("tls = %+v", res.TLS)
	}
	if !res.TLS.CertValid {
		t.Error("certificate did not validate against sim roots")
	}
	if res.TLS.KeyExchangeGroup != "X25519" {
		t.Errorf("group = %s", res.TLS.KeyExchangeGroup)
	}
	if res.TLS.ALPN == "" {
		t.Error("no ALPN")
	}
	if res.TransportParams == nil || res.TransportParams.MaxUDPPayloadSize != 1452 {
		t.Errorf("params = %+v", res.TransportParams)
	}
	if res.TPFingerprint == "" {
		t.Error("no fingerprint")
	}
	if res.HTTP == nil || !res.HTTP.RequestOK || res.HTTP.Server != "nginx/1.20.0" || res.HTTP.Status != "200" {
		t.Errorf("http = %+v", res.HTTP)
	}
	if res.QUICVersion != "draft-29" {
		t.Errorf("version = %s", res.QUICVersion)
	}
	if res.HandshakeMillis <= 0 {
		t.Error("no handshake duration")
	}
}

func TestScanNoSNIRejected(t *testing.T) {
	w := newWorld(t)
	addr := w.addServer(t, "192.0.2.11:443", serverParams(), quic.ServerPolicy{
		RequireSNI:  true,
		CloseReason: "handshake failure: missing server name",
	}, "cloudflare", "sni.example.org")
	s := newScanner(t, w)

	res := s.ScanTarget(context.Background(), Target{Addr: addr})
	if res.Outcome != OutcomeCryptoError {
		t.Fatalf("outcome = %s (%s)", res.Outcome, res.Error)
	}
	// Same target with SNI succeeds.
	res = s.ScanTarget(context.Background(), Target{Addr: addr, SNI: "sni.example.org"})
	if res.Outcome != OutcomeSuccess {
		t.Fatalf("with SNI: %s (%s)", res.Outcome, res.Error)
	}
}

func TestScanVersionMismatch(t *testing.T) {
	w := newWorld(t)
	w.versions = []quicwire.Version{quicwire.VersionGoogleQ050}
	addr := w.addServer(t, "192.0.2.13:443", serverParams(), quic.ServerPolicy{
		AdvertisedVersions: []quicwire.Version{quicwire.VersionGoogleQ050, quicwire.VersionGoogleT051},
	}, "gvs 1.0", "google.example")
	s := newScanner(t, w)

	res := s.ScanTarget(context.Background(), Target{Addr: addr, SNI: "google.example"})
	if res.Outcome != OutcomeVersionMismatch {
		t.Fatalf("outcome = %s (%s)", res.Outcome, res.Error)
	}
	if !res.VersionNegotiation || len(res.ServerVersions) != 2 || res.ServerVersions[0] != "Q050" {
		t.Errorf("server versions = %v", res.ServerVersions)
	}
}

func TestScanUnreachable(t *testing.T) {
	w := newWorld(t)
	s := newScanner(t, w)
	s.Timeout = 300 * time.Millisecond
	res := s.ScanTarget(context.Background(), Target{Addr: netip.MustParseAddr("192.0.2.99")})
	if res.Outcome != OutcomeTimeout {
		t.Fatalf("outcome = %s", res.Outcome)
	}
}

// TestCancelledScanIsNotATimeout: a scan stopped while its dial is in
// flight aborts the dial and records the target as "other" with the
// context's error. "timeout" means only that the connection's own
// handshake deadline or PTO budget ran out.
func TestCancelledScanIsNotATimeout(t *testing.T) {
	w := newWorld(t)
	s := newScanner(t, w)
	s.Timeout = 3 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)

	start := time.Now()
	res := s.ScanTarget(ctx, Target{Addr: netip.MustParseAddr("192.0.2.99")})
	if res.Outcome != OutcomeOther || res.Error != context.Canceled.Error() {
		t.Errorf("outcome = %s (%s), want %s (%v)", res.Outcome, res.Error, OutcomeOther, context.Canceled)
	}
	if elapsed := time.Since(start); elapsed > s.Timeout/2 {
		t.Errorf("a scan cancelled at 100ms returned after %v", elapsed)
	}
}

func TestScanBatchAndSummary(t *testing.T) {
	w := newWorld(t)
	ok := w.addServer(t, "192.0.2.20:443", serverParams(), quic.ServerPolicy{}, "LiteSpeed", "a.example")
	drop := netip.MustParseAddr("192.0.2.21") // no listener: silent
	rej := w.addServer(t, "192.0.2.22:443", serverParams(), quic.ServerPolicy{RequireSNI: true}, "cloudflare", "c.example")
	s := newScanner(t, w)
	s.Timeout = 500 * time.Millisecond

	targets := []Target{
		{Addr: ok, SNI: "a.example"},
		{Addr: ok},
		{Addr: drop, SNI: "b.example"},
		{Addr: rej}, // no SNI: rejected
		{Addr: rej, SNI: "c.example"},
	}
	results := s.Scan(context.Background(), targets)
	sum := Summarize(results)
	if sum.Total != 5 {
		t.Fatalf("total = %d", sum.Total)
	}
	if sum.Success != 3 || sum.Timeout != 1 || sum.CryptoError != 1 {
		t.Errorf("summary = %+v\nresults: %+v", sum, results)
	}
	if sum.Rate(OutcomeSuccess) != 60 {
		t.Errorf("success rate = %f", sum.Rate(OutcomeSuccess))
	}
	if sum.String() == "" {
		t.Error("empty summary string")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	w := newWorld(t)
	addr := w.addServer(t, "192.0.2.30:443", serverParams(), quic.ServerPolicy{}, "Caddy", "j.example")
	s := newScanner(t, w)
	results := s.Scan(context.Background(), []Target{{Addr: addr, SNI: "j.example", Source: "https-rr"}})

	path := filepath.Join(t.TempDir(), "out.jsonl")
	out, err := listscan.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	listscan.Emit[Result](out)(results)
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	line, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Result
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatalf("decoding %q: %v", line, err)
	}
	if r.Outcome != OutcomeSuccess || r.Target.SNI != "j.example" || r.Target.Source != "https-rr" {
		t.Errorf("decoded = %+v", r)
	}
	if r.HTTP == nil || r.HTTP.Server != "Caddy" {
		t.Errorf("http = %+v", r.HTTP)
	}
	if r.TPFingerprint == "" {
		t.Error("fingerprint lost")
	}
}

func TestExtensionSet(t *testing.T) {
	full := ExtensionSet(true, true)
	if len(full) != 4 {
		t.Errorf("full = %v", full)
	}
	minimal := ExtensionSet(false, false)
	if len(minimal) != 2 {
		t.Errorf("minimal = %v", minimal)
	}
	// Deterministic ordering for set comparison.
	again := ExtensionSet(true, true)
	for i := range full {
		if full[i] != again[i] {
			t.Error("extension set not deterministic")
		}
	}
}

func TestSelfSignedDetection(t *testing.T) {
	w := newWorld(t)
	ca, _ := certgen.NewCA("selfsigned-test")
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: []string{"self.example"}, SelfSigned: true})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := w.net.ListenUDP(netip.MustParseAddrPort("192.0.2.40:443"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := quic.Listen(pc, &quic.Config{
		TLS: &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"h3"}},
	}, quic.ServerPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	s := newScanner(t, w)
	s.SkipHTTP = true
	res := s.ScanTarget(context.Background(), Target{Addr: netip.MustParseAddr("192.0.2.40")})
	if res.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s (%s)", res.Outcome, res.Error)
	}
	if !res.TLS.SelfSigned {
		t.Error("self-signed certificate not flagged")
	}
	if res.TLS.CertValid {
		t.Error("self-signed certificate validated")
	}
}

// TestScanSharedSocketPool: a 10k-target scan must open exactly
// PoolSize sockets, not one per target — the transport demultiplexes
// every handshake over the shared pool by connection ID.
func TestScanSharedSocketPool(t *testing.T) {
	const (
		targetCount = 10000
		poolSize    = 8
	)
	w := newWorld(t)
	// Every probed address answers instantly with a Version Negotiation
	// offering only Q050, so each target resolves as version_mismatch
	// after a single round trip.
	w.net.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		hdr, _, err := quicwire.ParseLongHeader(payload)
		if err != nil {
			return nil
		}
		return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0,
			[]quicwire.Version{quicwire.VersionGoogleQ050})}
	})

	var dialCount atomic.Int32
	s := &Scanner{
		DialPacket: func() (net.PacketConn, error) {
			dialCount.Add(1)
			return w.net.DialUDP()
		},
		Timeout:  2 * time.Second,
		Workers:  256,
		PoolSize: poolSize,
		SkipHTTP: true,
	}
	t.Cleanup(func() { s.Close() })

	targets := make([]Target, targetCount)
	for i := range targets {
		targets[i] = Target{Addr: netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)})}
	}
	results := s.Scan(context.Background(), targets)

	sum := Summarize(results)
	if sum.VersionMismatch != targetCount {
		t.Fatalf("version_mismatch = %d of %d (summary %s)", sum.VersionMismatch, targetCount, sum)
	}
	if got := dialCount.Load(); got != poolSize {
		t.Errorf("opened %d sockets for %d targets, want %d", got, targetCount, poolSize)
	}
	if got := w.net.UDPSocketCount(); got != poolSize {
		t.Errorf("%d sockets bound after scan, want %d", got, poolSize)
	}

	st, ok := s.TransportStats()
	if !ok {
		t.Fatal("no transport stats after scan")
	}
	if st.Sockets != poolSize {
		t.Errorf("Sockets = %d, want %d", st.Sockets, poolSize)
	}
	if st.ActiveConns != 0 {
		t.Errorf("ActiveConns = %d after scan, want 0", st.ActiveConns)
	}
	if st.Dials != targetCount {
		t.Errorf("Dials = %d, want %d", st.Dials, targetCount)
	}
	if st.DatagramsOut < targetCount {
		t.Errorf("DatagramsOut = %d, want >= %d", st.DatagramsOut, targetCount)
	}
	if st.RoutingMisses != 0 || st.Dropped != 0 {
		t.Errorf("misses=%d dropped=%d, want 0/0", st.RoutingMisses, st.Dropped)
	}

	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, ok := s.TransportStats(); ok {
		t.Error("stats still present after Close")
	}
	if got := w.net.UDPSocketCount(); got != 0 {
		t.Errorf("%d sockets bound after Close, want 0", got)
	}
}

// TestDefaultPoolSize: without PoolSize the scanner opens the same
// number of sockets on every host, so one seed dials from the same
// source ports whatever the core count (check.sh runs it at -cpu 1,2,4).
func TestDefaultPoolSize(t *testing.T) {
	w := newWorld(t)
	w.net.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		hdr, _, err := quicwire.ParseLongHeader(payload)
		if err != nil {
			return nil
		}
		return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0,
			[]quicwire.Version{quicwire.VersionGoogleQ050})}
	})
	s := newScanner(t, w)
	s.SkipHTTP = true
	if res := s.ScanTarget(context.Background(), Target{Addr: netip.MustParseAddr("100.64.0.1")}); res.Outcome != OutcomeVersionMismatch {
		t.Fatalf("outcome = %s (%s)", res.Outcome, res.Error)
	}
	st, ok := s.TransportStats()
	if !ok || st.Sockets != 2 {
		t.Errorf("GOMAXPROCS %d: Sockets = %d (stats %t), want 2", runtime.GOMAXPROCS(0), st.Sockets, ok)
	}
}

// makeTestCert builds a certificate with the given subject, signed by
// parent/parentKey (self-signed when parent is nil).
func makeTestCert(t *testing.T, subject pkix.Name, parent *x509.Certificate, parentKey *ecdsa.PrivateKey) (*x509.Certificate, *ecdsa.PrivateKey) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(time.Now().UnixNano()),
		Subject:      subject,
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
	}
	signer, signerKey := tmpl, key
	if parent != nil {
		signer, signerKey = parent, parentKey
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, signer, &key.PublicKey, signerKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert, key
}

// TestTLSInfoSelfSignedEmptyCN: certificates with empty CommonNames
// must not be classified by CN string equality. A CA-issued cert whose
// subject and issuer CNs are both empty is NOT self-signed; a cert
// whose DNs merely coincide but whose signature is from another key is
// NOT self-signed; a genuinely self-signed cert with an empty CN IS.
func TestTLSInfoSelfSignedEmptyCN(t *testing.T) {
	caCert, caKey := makeTestCert(t, pkix.Name{Organization: []string{"Test CA"}}, nil, nil)

	// CA-issued, distinct DNs, both CNs empty.
	leafDistinct, _ := makeTestCert(t, pkix.Name{Organization: []string{"Leaf Org"}}, caCert, caKey)
	// CA-issued with subject DN identical to the CA's: issuer and
	// subject bytes match, but the signature is the CA key's, not its
	// own — the cryptographic check must reject it.
	leafSameDN, _ := makeTestCert(t, pkix.Name{Organization: []string{"Test CA"}}, caCert, caKey)
	// Genuinely self-signed, empty CN.
	selfSigned, _ := makeTestCert(t, pkix.Name{Organization: []string{"Solo"}}, nil, nil)
	// Issued by a CA that shares its CN, and nothing else, with the leaf.
	namedCA, namedKey := makeTestCert(t, pkix.Name{CommonName: "shared.example", Organization: []string{"Named CA"}}, nil, nil)
	leafSameCN, _ := makeTestCert(t, pkix.Name{CommonName: "shared.example"}, namedCA, namedKey)

	cases := []struct {
		name string
		cert *x509.Certificate
		want bool
	}{
		{"ca-signed distinct DN", leafDistinct, false},
		{"ca-signed coinciding DN", leafSameDN, false},
		{"self-signed empty CN", selfSigned, true},
		{"ca-signed, CA shares the leaf's CN", leafSameCN, false},
	}

	s := &Scanner{}
	for _, tc := range cases {
		cs := &tls.ConnectionState{
			Version:          tls.VersionTLS13,
			PeerCertificates: []*x509.Certificate{tc.cert},
		}
		info := s.tlsInfo(cs, "")
		if info.SelfSigned != tc.want {
			t.Errorf("%s: SelfSigned = %v, want %v", tc.name, info.SelfSigned, tc.want)
		}
	}
}

// TestChainMemo: a chain is verified on its first visit and remembered
// on the second, per name it is checked for.
func TestChainMemo(t *testing.T) {
	ca, err := certgen.NewCA("memo-test")
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	ca.AddToPool(pool)
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: []string{"memo.example"}})
	if err != nil {
		t.Fatal(err)
	}
	chain := []*x509.Certificate{cert.Leaf, ca.Certificate()}

	var m ChainMemo
	for i, tc := range []struct {
		sni         string
		valid, memo bool
	}{
		{"memo.example", true, false},
		{"memo.example", true, true},
		{"other.example", false, false},
		{"other.example", false, true},
	} {
		hits, misses := mCertCacheHits.Value(), mCertCacheMiss.Value()
		if got := m.Verify(pool, chain, tc.sni); got != tc.valid {
			t.Errorf("visit %d (%s): valid = %v, want %v", i, tc.sni, got, tc.valid)
		}
		hit, miss := mCertCacheHits.Value()-hits == 1, mCertCacheMiss.Value()-misses == 1
		if hit != tc.memo || miss == tc.memo {
			t.Errorf("visit %d (%s): memo hit %v, miss %v; want a %v hit", i, tc.sni, hit, miss, tc.memo)
		}
	}
}
