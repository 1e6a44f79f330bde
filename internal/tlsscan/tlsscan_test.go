package tlsscan

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"net"
	"net/http"
	"net/netip"
	"testing"
	"time"

	"quicscan/internal/certgen"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
)

type world struct {
	net  *simnet.Network
	pool *x509.CertPool
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{net: simnet.New(simnet.Config{}), pool: x509.NewCertPool()}
	t.Cleanup(w.net.Close)
	return w
}

// addWebServer starts an HTTPS server on the simnet stream plane.
func (w *world) addWebServer(t *testing.T, addr string, tcfg func(*tls.Config), hdr map[string]string, domains ...string) netip.Addr {
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
	return w.serveCert(t, addr, cert, tcfg, hdr)
}

// serveCert starts an HTTPS server on the simnet stream plane that
// presents cert.
func (w *world) serveCert(t *testing.T, addr string, cert tls.Certificate, tcfg func(*tls.Config), hdr map[string]string) netip.Addr {
	t.Helper()
	ap := netip.MustParseAddrPort(addr)
	l, err := w.net.ListenStream(ap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"http/1.1"}}
	if tcfg != nil {
		tcfg(cfg)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		for k, v := range hdr {
			rw.Header().Set(k, v)
		}
		rw.WriteHeader(200)
	})}
	go srv.Serve(tls.NewListener(l, cfg))
	t.Cleanup(func() { srv.Close() })
	return ap.Addr()
}

func newScanner(w *world) *Scanner {
	return &Scanner{
		Dial: func(ctx context.Context, addr netip.AddrPort) (net.Conn, error) {
			return w.net.DialStream(addr)
		},
		RootCAs: w.pool,
		Timeout: 2 * time.Second,
		Workers: 4,
	}
}

func TestScanWithAltSvc(t *testing.T) {
	w := newWorld(t)
	addr := w.addWebServer(t, "192.0.2.50:443", nil, map[string]string{
		"Server":  "cloudflare",
		"Alt-Svc": `h3-27=":443"; ma=86400, h3-28=":443"; ma=86400, h3-29=":443"; ma=86400`,
	}, "cdn.example.org")
	s := newScanner(w)

	res := s.ScanTarget(context.Background(), Target{Addr: addr, SNI: "cdn.example.org"})
	if !res.OK {
		t.Fatalf("scan failed: %s", res.Error)
	}
	if res.TLS.Version != tls.VersionTLS13 {
		t.Errorf("TLS version = %x", res.TLS.Version)
	}
	if !res.TLS.CertValid {
		t.Error("cert invalid")
	}
	if res.HTTP == nil || res.HTTP.Server != "cloudflare" || res.HTTP.Status != "200" {
		t.Errorf("http = %+v", res.HTTP)
	}
	want := []string{"h3-27", "h3-28", "h3-29"}
	if len(res.QUICALPNs) != 3 {
		t.Fatalf("alpns = %v", res.QUICALPNs)
	}
	for i, a := range want {
		if res.QUICALPNs[i] != a {
			t.Errorf("alpn[%d] = %s", i, res.QUICALPNs[i])
		}
	}
}

func TestScanNoAltSvc(t *testing.T) {
	w := newWorld(t)
	addr := w.addWebServer(t, "192.0.2.51:443", nil, map[string]string{"Server": "nginx"}, "plain.example.org")
	s := newScanner(w)
	res := s.ScanTarget(context.Background(), Target{Addr: addr, SNI: "plain.example.org"})
	if !res.OK || len(res.QUICALPNs) != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestScanTLS12Only(t *testing.T) {
	w := newWorld(t)
	addr := w.addWebServer(t, "192.0.2.52:443", func(c *tls.Config) {
		c.MaxVersion = tls.VersionTLS12
	}, map[string]string{"Server": "cloudflare"}, "old.example.org")
	s := newScanner(w)
	res := s.ScanTarget(context.Background(), Target{Addr: addr, SNI: "old.example.org"})
	if !res.OK {
		t.Fatalf("scan failed: %s", res.Error)
	}
	if res.TLS.Version != tls.VersionTLS12 {
		t.Errorf("version = %x", res.TLS.Version)
	}
	if res.TLS.KeyExchangeGroup != "pre-TLS1.3" {
		t.Errorf("group = %s", res.TLS.KeyExchangeGroup)
	}
}

func TestScanConnectionRefused(t *testing.T) {
	w := newWorld(t)
	s := newScanner(w)
	res := s.ScanTarget(context.Background(), Target{Addr: netip.MustParseAddr("192.0.2.99")})
	if res.OK || res.Error == "" {
		t.Errorf("res = %+v", res)
	}
}

func TestScanBatch(t *testing.T) {
	w := newWorld(t)
	a1 := w.addWebServer(t, "192.0.2.60:443", nil, map[string]string{"Alt-Svc": `h3=":443"`}, "one.example")
	a2 := w.addWebServer(t, "192.0.2.61:443", nil, nil, "two.example")
	s := newScanner(w)
	results := s.Scan(context.Background(), []Target{
		{Addr: a1, SNI: "one.example"},
		{Addr: a2, SNI: "two.example"},
		{Addr: netip.MustParseAddr("192.0.2.62")},
	})
	if !results[0].OK || len(results[0].QUICALPNs) != 1 {
		t.Errorf("result 0 = %+v", results[0])
	}
	if !results[1].OK || len(results[1].QUICALPNs) != 0 {
		t.Errorf("result 1 = %+v", results[1])
	}
	if results[2].OK {
		t.Errorf("result 2 = %+v", results[2])
	}
}

func TestNoSNICertMismatch(t *testing.T) {
	w := newWorld(t)
	addr := w.addWebServer(t, "192.0.2.70:443", nil, nil, "strict.example")
	s := newScanner(w)
	res := s.ScanTarget(context.Background(), Target{Addr: addr})
	if !res.OK {
		t.Fatalf("no-SNI handshake failed: %s", res.Error)
	}
	// Without SNI the certificate cannot validate for a name.
	if res.TLS.CertValid {
		t.Log("cert validated without SNI (chain-only validation)")
	}
	if res.TLS.CertCommonName != "strict.example" {
		t.Errorf("CN = %s", res.TLS.CertCommonName)
	}
}

// TestChainVerifiedOncePerScanner: the second visit of a chain is
// answered by the scanner's memo.
func TestChainVerifiedOncePerScanner(t *testing.T) {
	w := newWorld(t)
	addr := w.addWebServer(t, "192.0.2.80:443", nil, nil, "memo.example")
	s := newScanner(w)
	hits := telemetry.Default().Counter("core_certcache_hits_total")
	misses := telemetry.Default().Counter("core_certcache_misses_total")
	for visit, wantHit := range []bool{false, true} {
		h0, m0 := hits.Value(), misses.Value()
		res := s.ScanTarget(context.Background(), Target{Addr: addr, SNI: "memo.example"})
		if !res.OK || !res.TLS.CertValid {
			t.Fatalf("visit %d: %+v", visit, res)
		}
		if hit, miss := hits.Value()-h0 == 1, misses.Value()-m0 == 1; hit != wantHit || miss == wantHit {
			t.Errorf("visit %d: memo hit %v, miss %v; want a %v hit", visit, hit, miss, wantHit)
		}
	}
}

// TestSelfSignedIsNotCommonNameEquality: a leaf is self-signed when it
// signed itself, not when its issuer's CN reads like its own. Each row
// is served and scanned end to end.
func TestSelfSignedIsNotCommonNameEquality(t *testing.T) {
	issue := func(caName string, opts certgen.LeafOptions) tls.Certificate {
		t.Helper()
		ca, err := certgen.NewCA(caName)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := ca.Issue(opts)
		if err != nil {
			t.Fatal(err)
		}
		return cert
	}
	w := newWorld(t)
	s := newScanner(w)
	for i, tc := range []struct {
		name string
		cert tls.Certificate
		want bool
	}{
		{"CA shares the leaf's CN", issue("shared.example", certgen.LeafOptions{CommonName: "shared.example"}), false},
		{"CA and leaf both without a CN", issue("", certgen.LeafOptions{}), false},
		{"self-signed leaf", issue("unused-ca", certgen.LeafOptions{DNSNames: []string{"self.example"}, SelfSigned: true}), true},
	} {
		if leaf := tc.cert.Leaf; leaf.Issuer.CommonName != leaf.Subject.CommonName {
			t.Fatalf("%s: fixture CNs differ (%q, %q): the case no longer tells the two tests apart",
				tc.name, leaf.Issuer.CommonName, leaf.Subject.CommonName)
		}
		addr := w.serveCert(t, netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(90 + i)}), 443).String(), tc.cert, nil, nil)
		res := s.ScanTarget(context.Background(), Target{Addr: addr})
		if !res.OK {
			t.Fatalf("%s: scan failed: %s", tc.name, res.Error)
		}
		if res.TLS.SelfSigned != tc.want {
			t.Errorf("%s: SelfSigned = %v, want %v", tc.name, res.TLS.SelfSigned, tc.want)
		}
	}
}
