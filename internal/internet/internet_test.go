package internet

import (
	"context"
	"crypto/tls"
	"encoding/binary"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/dnsclient"
	"quicscan/internal/dnswire"
	"quicscan/internal/h3"
	"quicscan/internal/quicwire"
	"quicscan/internal/tlsscan"
	"quicscan/internal/zmapquic"
)

func tinySpec() Spec {
	return Spec{Seed: 1, Scale: 16384, ASScale: 64, DomainScale: 65536, Week: 18}
}

func TestAllTPConfigsDistinct(t *testing.T) {
	configs := allTPConfigs()
	if len(configs) != 45 {
		t.Fatalf("got %d configurations, want the paper's 45", len(configs))
	}
	seen := make(map[string]int)
	for i, c := range configs {
		fp := c.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("configs %d and %d share fingerprint %s", i, j, fp)
		}
		seen[fp] = i
	}
}

func TestBuildDeterminism(t *testing.T) {
	u1 := Build(tinySpec())
	u2 := Build(tinySpec())
	defer u1.Net.Close()
	defer u2.Net.Close()
	if len(u1.Deployments) != len(u2.Deployments) {
		t.Fatalf("deployment counts differ: %d vs %d", len(u1.Deployments), len(u2.Deployments))
	}
	for i := range u1.Deployments {
		a, b := u1.Deployments[i], u2.Deployments[i]
		if a.Addr != b.Addr || a.Behavior != b.Behavior || a.Provider != b.Provider {
			t.Fatalf("deployment %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestBuildIsDeterministic pins Build as a pure function of its spec
// above the deployments: the same QUIC names land in the same source
// lists, so every domain carries the same sources and, through them,
// the same HTTPS-RR draw in every process: the two zones hold the same
// records in the same order.
func TestBuildIsDeterministic(t *testing.T) {
	spec := Spec{Seed: 3, Scale: 2048, ASScale: 64, DomainScale: 8192, Week: 18}
	u1 := Build(spec)
	u2 := Build(spec)
	defer u1.Net.Close()
	defer u2.Net.Close()
	if !reflect.DeepEqual(u1.SourceLists, u2.SourceLists) {
		t.Error("SourceLists differ between two builds of one spec")
	}
	if !reflect.DeepEqual(u1.Zone, u2.Zone) {
		t.Error("zones differ between two builds of one spec")
	}
}

func TestBuildShape(t *testing.T) {
	u := Build(tinySpec())
	defer u.Net.Close()

	byProvider := make(map[string]int)
	v4, v6 := 0, 0
	for _, d := range u.Deployments {
		byProvider[d.Provider]++
		if d.Addr.Is4() {
			v4++
		} else {
			v6++
		}
	}
	if byProvider["cloudflare"] == 0 || byProvider["google"] == 0 || byProvider["akamai"] == 0 {
		t.Fatalf("providers missing: %v", byProvider)
	}
	// Cloudflare dominates IPv4 as in Table 2.
	if byProvider["cloudflare"] <= byProvider["akamai"] {
		t.Errorf("cloudflare (%d) should exceed akamai (%d)", byProvider["cloudflare"], byProvider["akamai"])
	}
	if v6 == 0 {
		t.Error("no IPv6 deployments")
	}
	// AS lookups resolve for every deployment.
	for _, d := range u.Deployments[:10] {
		if _, ok := u.ASDB.Lookup(d.Addr); !ok {
			t.Errorf("no AS for %v", d.Addr)
		}
	}
	// Every source list holds domains.
	if len(u.SourceLists) != 5 {
		t.Fatalf("lists=%d", len(u.SourceLists))
	}
	for src, names := range u.SourceLists {
		if len(names) == 0 {
			t.Errorf("source list %s is empty", src)
		}
	}
	// The hitlist covers v6 deployments.
	if len(u.IPv6Hitlist) == 0 {
		t.Error("empty IPv6 hitlist")
	}
}

func startedUniverse(t *testing.T, spec Spec, opts StartOptions) *Universe {
	t.Helper()
	u := Build(spec)
	if err := u.Start(opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Stop)
	return u
}

func TestZMapDiscovery(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{Stateful: true})

	pc, err := u.Net.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	sc := &zmapquic.Scanner{Conn: pc, Cooldown: 300 * time.Millisecond}

	var want int
	var targets []netip.Addr
	for _, d := range u.Deployments {
		if d.Addr.Is4() {
			targets = append(targets, d.Addr)
			if d.ZMapVisible {
				want++
			}
		}
	}
	results, stats, err := sc.ScanAddrs(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != want {
		t.Errorf("found %d, want %d ZMap-visible (probes %d)", len(results), want, stats.ProbesSent)
	}
	// Week 18: Cloudflare advertises Version 1 (ietf-01).
	foundV1 := false
	for _, r := range results {
		d := u.ByAddr[r.Addr]
		if d.Provider == "cloudflare" {
			for _, v := range r.Versions {
				if v == quicwire.Version1 {
					foundV1 = true
				}
			}
		}
	}
	if !foundV1 {
		t.Error("no cloudflare address advertised ietf-01 at week 18")
	}
}

// TestSyntheticResponderIndex: the responder's IPv4 bit set answers
// exactly the addresses ByAddr says can answer. On the seed-9,
// scale-2048 universe a forced-VN probe gets a reply just where ByAddr
// holds a ZMapVisible deployment that advertises versions this week:
// at every address of every allocated /24, at the edges of the span the
// set covers and of the address space, at a visible address in its
// IPv4-mapped form (no deployment has that form, so no reply), and at
// a visible IPv6 deployment, which takes the ByAddr path. A probe of
// empty space allocates nothing.
func TestSyntheticResponderIndex(t *testing.T) {
	u := Build(Spec{Seed: 9, Scale: 2048})
	sc := &zmapquic.Scanner{}
	answers := func(a netip.Addr) bool {
		d := u.ByAddr[a]
		return d != nil && d.ZMapVisible && len(d.quicVersionsForWeek(u.Spec.Week)) > 0
	}
	check := func(a netip.Addr) {
		t.Helper()
		got := u.syntheticQUIC(netip.AddrPortFrom(a, 443), sc.BuildProbe(a)) != nil
		if want := answers(a); got != want {
			t.Errorf("%v: replied %v, want %v", a, got, want)
		}
	}
	addrOf := func(v uint32) netip.Addr {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		return netip.AddrFrom4(b)
	}

	blocks := u.V4Prefixes()
	replies := 0
	for _, p := range blocks {
		for a := p.Addr(); p.Contains(a); a = a.Next() {
			check(a)
			if answers(a) {
				replies++
			}
		}
	}
	if replies == 0 {
		t.Fatal("no address of the allocated blocks answers")
	}
	last := blocks[len(blocks)-1].Addr().As4()
	edges := []netip.Addr{
		netip.MustParseAddr("10.255.255.255"),
		netip.MustParseAddr("11.0.0.0"),
		addrOf(binary.BigEndian.Uint32(last[:]) + 256), // past the last block
		addrOf(v4Base + 64*uint32(len(u.zmapV4))),      // past the set's span
		netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("255.255.255.255"),
	}
	for _, a := range edges {
		check(a)
	}

	var v4, v6 *Deployment
	for _, d := range u.Deployments {
		if d.ZMapVisible && len(d.quicVersionsForWeek(u.Spec.Week)) > 0 {
			if d.Addr.Is4() && v4 == nil {
				v4 = d
			} else if d.Addr.Is6() && v6 == nil {
				v6 = d
			}
		}
	}
	if v4 == nil || v6 == nil {
		t.Fatal("no visible IPv4 or IPv6 deployment")
	}
	check(v4.Addr)
	check(netip.AddrFrom16(v4.Addr.As16()))
	check(v6.Addr)

	dark := netip.AddrPortFrom(netip.MustParseAddr("100.64.0.1"), 443)
	probe := sc.BuildProbe(dark.Addr())
	if allocs := testing.AllocsPerRun(100, func() { u.syntheticQUIC(dark, probe) }); allocs != 0 {
		t.Errorf("a probe of a dark address allocates %.0f times, want 0", allocs)
	}
}

func TestZMapWeek9NoV1(t *testing.T) {
	spec := tinySpec()
	spec.Week = 9
	u := startedUniverse(t, spec, StartOptions{})

	pc, _ := u.Net.DialUDP()
	sc := &zmapquic.Scanner{Conn: pc, Cooldown: 200 * time.Millisecond}
	var targets []netip.Addr
	for _, d := range u.Deployments {
		if d.Addr.Is4() && d.Provider == "cloudflare" && d.ZMapVisible {
			targets = append(targets, d.Addr)
		}
	}
	results, _, err := sc.ScanAddrs(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for _, v := range r.Versions {
			if v == quicwire.Version1 {
				t.Fatal("ietf-01 advertised at week 9")
			}
		}
	}
}

func TestDNSDiscovery(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{})

	cl := &dnsclient.Client{
		Server:     net.UDPAddrFromAddrPort(DNSAddr),
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		Timeout:    time.Second,
	}
	names := u.SourceLists["alexa"]
	if len(names) == 0 {
		t.Fatal("empty alexa list")
	}
	results := cl.ResolveBatch(context.Background(), names, dnswire.TypeHTTPS, 16)
	withRR := 0
	for _, r := range results {
		if len(r.HTTPSRecords()) > 0 {
			withRR++
			rr := r.HTTPSRecords()[0]
			hasALPN := false
			for _, p := range rr.Params {
				if p.Key == dnswire.SvcParamALPN && len(p.ALPN) > 0 {
					hasALPN = true
				}
			}
			if !hasALPN {
				t.Errorf("HTTPS RR for %s lacks ALPN", r.Name)
			}
		}
	}
	// A records must resolve for the whole list.
	aResults := cl.ResolveBatch(context.Background(), names, dnswire.TypeA, 16)
	for _, r := range aResults {
		if r.Err != nil {
			t.Errorf("A lookup %s: %v", r.Name, r.Err)
		}
	}
	t.Logf("alexa HTTPS RR rate: %d/%d", withRR, len(names))
}

func TestAltSvcDiscovery(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{Web: true})

	sc := &tlsscan.Scanner{
		Dial: func(ctx context.Context, addr netip.AddrPort) (net.Conn, error) {
			return u.Net.DialStream(addr)
		},
		RootCAs: u.RootCAs(),
		Timeout: 2 * time.Second,
		Workers: 16,
	}

	var altVisible, altInvisible *Deployment
	for _, d := range u.Deployments {
		if !d.Addr.Is4() {
			continue
		}
		if d.AltVisible && altVisible == nil && len(d.Domains) > 0 {
			altVisible = d
		}
		if !d.AltVisible && altInvisible == nil {
			altInvisible = d
		}
	}
	if altVisible == nil || altInvisible == nil {
		t.Fatal("universe lacks alt-visible/invisible deployments")
	}

	res := sc.ScanTarget(context.Background(), tlsscan.Target{Addr: altVisible.Addr, SNI: altVisible.Domains[0]})
	if !res.OK {
		t.Fatalf("TLS scan failed: %s", res.Error)
	}
	if len(res.QUICALPNs) == 0 {
		t.Errorf("alt-visible deployment advertised no H3 ALPNs: %+v", res.HTTP)
	}
	res = sc.ScanTarget(context.Background(), tlsscan.Target{Addr: altInvisible.Addr})
	if !res.OK {
		t.Fatalf("TLS scan of invisible failed: %s", res.Error)
	}
	if len(res.QUICALPNs) != 0 {
		t.Errorf("alt-invisible deployment advertised ALPNs %v", res.QUICALPNs)
	}
}

func TestUnpaddedResponderAS(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{})

	pc, _ := u.Net.DialUDP()
	sc := &zmapquic.Scanner{Conn: pc, Cooldown: 200 * time.Millisecond, NoPadding: true}
	var targets []netip.Addr
	for _, d := range u.Deployments {
		if d.Addr.Is4() && d.ZMapVisible {
			targets = append(targets, d.Addr)
		}
	}
	results, _, err := sc.ScanAddrs(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		d := u.ByAddr[r.Addr]
		if !d.Profile.RespondToUnpadded {
			t.Errorf("%s (%s) answered an unpadded probe", r.Addr, d.Provider)
		}
	}
	if len(results) == 0 {
		t.Error("the unpadded-responder AS did not answer")
	}
}

func TestGoogleTCPSelfSignedNoSNI(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{Web: true})
	sc := &tlsscan.Scanner{
		Dial: func(ctx context.Context, addr netip.AddrPort) (net.Conn, error) {
			return u.Net.DialStream(addr)
		},
		RootCAs: u.RootCAs(),
		Timeout: 2 * time.Second,
	}
	var g *Deployment
	for _, d := range u.Deployments {
		if d.Provider == "google" && d.Addr.Is4() {
			g = d
			break
		}
	}
	if g == nil {
		t.Fatal("no google deployment")
	}
	res := sc.ScanTarget(context.Background(), tlsscan.Target{Addr: g.Addr})
	if !res.OK {
		t.Fatalf("google no-SNI TCP scan failed: %s", res.Error)
	}
	if !res.TLS.SelfSigned {
		t.Errorf("expected self-signed error certificate, got %q", res.TLS.CertCommonName)
	}
	if res.TLS.ALPN != "" {
		t.Errorf("google TCP stack negotiated ALPN %q", res.TLS.ALPN)
	}
}

// TestWebServerVariants: the one web server answers each deployment
// with that deployment's own TLS stack and headers, picked by the
// address dialled.
func TestWebServerVariants(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{Web: true})
	sc := &tlsscan.Scanner{
		Dial: func(ctx context.Context, addr netip.AddrPort) (net.Conn, error) {
			return u.Net.DialStream(addr)
		},
		RootCAs: u.RootCAs(),
		Timeout: 2 * time.Second,
	}
	tls12Capped := func(d *Deployment) bool {
		return d.Profile.TCPMaxTLS12Share > 0 && d.Index%d.Profile.TCPMaxTLS12Share == 1
	}
	cases := []struct {
		name  string
		pick  func(*Deployment) bool
		sni   bool
		check func(*testing.T, *Deployment, tlsscan.Result)
	}{
		{"tls12-cap", tls12Capped, true, func(t *testing.T, _ *Deployment, r tlsscan.Result) {
			if r.TLS.Version != tls.VersionTLS12 {
				t.Errorf("TLS version %#x, want TLS 1.2", r.TLS.Version)
			}
		}},
		{"tls13", func(d *Deployment) bool { return !tls12Capped(d) }, true, func(t *testing.T, _ *Deployment, r tlsscan.Result) {
			if r.TLS.Version != tls.VersionTLS13 || r.TLS.ALPN != "http/1.1" {
				t.Errorf("TLS version %#x, ALPN %q; want TLS 1.3 and http/1.1", r.TLS.Version, r.TLS.ALPN)
			}
		}},
		{"no-alpn", func(d *Deployment) bool { return d.Profile.TCPNoALPN }, true, func(t *testing.T, _ *Deployment, r tlsscan.Result) {
			if r.TLS.ALPN != "" {
				t.Errorf("negotiated ALPN %q, want none", r.TLS.ALPN)
			}
		}},
		{"self-signed-without-sni", func(d *Deployment) bool { return d.Profile.TCPSelfSignedNoSNI }, false, func(t *testing.T, _ *Deployment, r tlsscan.Result) {
			if !r.TLS.SelfSigned {
				t.Errorf("certificate %q is not the self-signed error certificate", r.TLS.CertCommonName)
			}
		}},
		{"self-signed-profile-with-sni", func(d *Deployment) bool { return d.Profile.TCPSelfSignedNoSNI }, true, func(t *testing.T, _ *Deployment, r tlsscan.Result) {
			if r.TLS.SelfSigned || !r.TLS.CertValid {
				t.Errorf("certificate %q: self-signed %v, valid %v; want the provider's valid one",
					r.TLS.CertCommonName, r.TLS.SelfSigned, r.TLS.CertValid)
			}
		}},
		{"headers", func(d *Deployment) bool { return d.AltVisible && d.ServerHeader != "" }, true, func(t *testing.T, d *Deployment, r tlsscan.Result) {
			if r.HTTP == nil || r.HTTP.Server != d.ServerHeader || len(r.QUICALPNs) == 0 {
				t.Errorf("HTTP %+v, ALPNs %v; want Server %q and an Alt-Svc", r.HTTP, r.QUICALPNs, d.ServerHeader)
			}
		}},
		{"no-alt-svc", func(d *Deployment) bool { return !d.AltVisible }, true, func(t *testing.T, _ *Deployment, r tlsscan.Result) {
			if r.HTTP == nil || r.HTTP.AltSvcRaw != "" {
				t.Errorf("HTTP %+v, want no Alt-Svc", r.HTTP)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var d *Deployment
			for _, cand := range u.Deployments {
				if tc.pick(cand) && (!tc.sni || len(cand.Domains) > 0) {
					d = cand
					break
				}
			}
			if d == nil {
				t.Fatal("no such deployment in the universe")
			}
			target := tlsscan.Target{Addr: d.Addr}
			if tc.sni {
				target.SNI = d.Domains[0]
			}
			res := sc.ScanTarget(context.Background(), target)
			if !res.OK {
				t.Fatalf("%s (%s): %s", d.Addr, d.Provider, res.Error)
			}
			tc.check(t, d, res)
		})
	}
}

// TestFacebookRetry verifies mvfst-style address validation: scanning
// a Facebook deployment involves a Retry round trip, which the scanner
// records and survives.
func TestFacebookRetry(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{Stateful: true})
	sc := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:    u.RootCAs(),
		Timeout:    2 * time.Second,
	}
	var fb *Deployment
	for _, d := range u.Deployments {
		if d.Provider == "facebook" && d.Behavior == BehaviorActive && d.Addr.Is4() {
			fb = d
			break
		}
	}
	if fb == nil {
		t.Skip("no facebook deployment at this scale")
	}
	target := core.Target{Addr: fb.Addr}
	if len(fb.Domains) > 0 {
		target.SNI = fb.Domains[0]
	}
	res := sc.ScanTarget(context.Background(), target)
	if res.Outcome != core.OutcomeSuccess {
		t.Fatalf("facebook scan: %s (%s)", res.Outcome, res.Error)
	}
	if !res.Retried {
		t.Error("scan did not record the Retry round trip")
	}
	if res.HTTP == nil || res.HTTP.Server != "proxygen-bolt" {
		t.Errorf("server header = %+v", res.HTTP)
	}
}

// altVisibleActive is an active IPv4 deployment of u whose HTTP/3
// answer carries a Server header and an Alt-Svc.
func altVisibleActive(t *testing.T, u *Universe) *Deployment {
	t.Helper()
	for _, d := range u.Deployments {
		if d.Behavior == BehaviorActive && d.Addr.Is4() && d.AltVisible && d.Profile.ALPNSet != nil &&
			d.ServerHeader != "" && len(d.Domains) > 0 {
			return d
		}
	}
	t.Skip("no alt-visible active deployment at this scale")
	return nil
}

var h3Sink *h3.Response

// TestH3HandlerAllocatesNothing: a deployment's HTTP/3 answer is fixed
// per deployment and week, so its handler builds it once and a HEAD
// allocates nothing.
func TestH3HandlerAllocatesNothing(t *testing.T) {
	u := Build(tinySpec())
	d := altVisibleActive(t, u)
	handler := u.h3HandlerFor(d, 443)
	req := &h3.Request{Method: "HEAD"}
	if allocs := testing.AllocsPerRun(100, func() { h3Sink = handler(req) }); allocs != 0 {
		t.Errorf("a HEAD allocates %.0f times, want 0", allocs)
	}
	if got, want := h3Sink.Header("alt-svc"), altSvcValue(d.Profile.ALPNSet(u.Spec.Week), 443); got != want {
		t.Errorf("alt-svc %q, want %q", got, want)
	}
	if got := h3Sink.Header("server"); got != d.ServerHeader {
		t.Errorf("server %q, want %q", got, d.ServerHeader)
	}
}

// TestH3HandlerServesConnectionsAtOnce: connections to one deployment
// share its handler's response; HEADs on several of them at once read
// it (under -race, without a race) and all get the same headers.
func TestH3HandlerServesConnectionsAtOnce(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{Stateful: true})
	d := altVisibleActive(t, u)
	sc := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:    u.RootCAs(),
		Timeout:    2 * time.Second,
	}
	want := altSvcValue(d.Profile.ALPNSet(u.Spec.Week), 443)
	const conns, heads = 2, 3
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range heads {
				res := sc.ScanTarget(context.Background(), core.Target{Addr: d.Addr, SNI: d.Domains[0]})
				if res.HTTP == nil || !res.HTTP.RequestOK {
					t.Errorf("HEAD failed: %s (%s)", res.Outcome, res.Error)
					return
				}
				if res.HTTP.Server != d.ServerHeader || res.HTTP.AltSvc != want {
					t.Errorf("server %q, alt-svc %q; want %q, %q", res.HTTP.Server, res.HTTP.AltSvc, d.ServerHeader, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleUniverseFootprint: the benchmark fixture, started and left
// alone, holds what its servers need to wait — not a full receive queue
// per socket (which alone was ≈ 124 MB at this scale), nor a read
// goroutine and a 64 KiB read buffer per listener (≈ 33 MB): simnet
// hands each datagram to the server that owns the socket. Nor does it
// park a goroutine per server: a QUIC listener starts its HTTP/3 server
// only for a handshaken connection, and one web server answers for
// every deployment.
func TestIdleUniverseFootprint(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	goroutines0, heap0 := runtime.NumGoroutine(), liveHeap()
	u := Build(Spec{Seed: 9, Scale: 2048})
	if err := u.Start(StartOptions{Stateful: true, Web: true}); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	// A few for slack: the web server's accept loop, and the network's
	// scheduler, which starts with the first delay.
	added := runtime.NumGoroutine() - goroutines0
	grew := float64(int64(liveHeap())-int64(heap0)) / (1 << 20)
	t.Logf("started scale-2048 universe: %d QUIC listeners, %d UDP sockets, %d goroutines, %.1f MB live heap",
		len(u.servers.quicLs), u.Net.UDPSocketCount(), added, grew)
	if added > 8 {
		t.Errorf("idle universe runs %d goroutines, want <= 8", added)
	}
	if grew >= 8 {
		t.Errorf("idle universe holds %.1f MB, want < 8 MB", grew)
	}
}

// TestFailedStartLeavesNothingRunning: a Start that fails part-way, on
// an address that is already bound, closes the DNS server and every
// listener it opened, and the universe can still be stopped. Taking the
// DNS address fails it before there is a DNS server; taking the last
// active deployment's :443 fails it with every other listener up.
func TestFailedStartLeavesNothingRunning(t *testing.T) {
	var lastActive netip.Addr
	u := Build(tinySpec())
	u.Net.Close()
	for _, d := range u.Deployments {
		if d.Behavior == BehaviorActive {
			lastActive = d.Addr
		}
	}
	for _, taken := range []netip.AddrPort{DNSAddr, netip.AddrPortFrom(lastActive, 443)} {
		u = Build(tinySpec())
		if _, err := u.Net.ListenUDP(taken); err != nil {
			t.Fatal(err)
		}
		if err := u.Start(StartOptions{Stateful: true}); err == nil {
			u.Stop()
			t.Fatalf("Start succeeded with %v taken", taken)
		}
		if n := u.Net.UDPSocketCount(); n != 1 {
			t.Errorf("%v taken: %d UDP sockets bound after the failed Start, want only the test's own", taken, n)
		}
		if u.servers != nil {
			t.Errorf("%v taken: a failed Start left the universe marked started", taken)
		}
		u.Stop()
	}
}
