// Package quicscan's root benchmark harness regenerates every table
// and figure of the paper (one benchmark per artifact, operating on a
// once-built campaign), measures the protocol substrate's hot paths,
// and quantifies the design-choice ablations called out in DESIGN.md.
//
//	go test -bench=. -benchmem
//
// The per-table/figure benchmarks measure the *analysis regeneration*
// over a live campaign dataset; BenchmarkFullCampaign measures the
// entire scan pipeline end to end.
package quicscan

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/analysis"
	campaignpkg "quicscan/internal/campaign"
	"quicscan/internal/core"
	"quicscan/internal/dnsclient"
	"quicscan/internal/dnsserver"
	"quicscan/internal/dnswire"
	"quicscan/internal/experiments"
	"quicscan/internal/h3"
	"quicscan/internal/internet"
	"quicscan/internal/quic"
	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
	"quicscan/internal/zmapquic"
)

// ---- campaign fixture ---------------------------------------------------

var (
	campaignOnce sync.Once
	campaign     *experiments.Report
	campaignErr  error
)

func benchCampaign(b *testing.B) *experiments.Report {
	b.Helper()
	campaignOnce.Do(func() {
		campaign, campaignErr = experiments.Run(experiments.Options{
			Spec:  internet.Spec{Seed: 9, Scale: 8192, ASScale: 48, DomainScale: 32768},
			Weeks: []int{9, 18},
		})
	})
	if campaignErr != nil {
		b.Fatalf("campaign: %v", campaignErr)
	}
	return campaign
}

func benchRender(b *testing.B, id string) {
	r := benchCampaign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := r.Render(id); len(out) < 20 {
			b.Fatalf("%s produced %q", id, out)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B)  { benchRender(b, "T1") }
func BenchmarkTable2(b *testing.B)  { benchRender(b, "T2") }
func BenchmarkTable3(b *testing.B)  { benchRender(b, "T3") }
func BenchmarkTable4(b *testing.B)  { benchRender(b, "T4") }
func BenchmarkTable5(b *testing.B)  { benchRender(b, "T5") }
func BenchmarkTable6(b *testing.B)  { benchRender(b, "T6") }
func BenchmarkTable7(b *testing.B)  { benchRender(b, "T7") }
func BenchmarkFigure3(b *testing.B) { benchRender(b, "F3") }
func BenchmarkFigure4(b *testing.B) { benchRender(b, "F4") }
func BenchmarkFigure5(b *testing.B) { benchRender(b, "F5") }
func BenchmarkFigure6(b *testing.B) { benchRender(b, "F6") }
func BenchmarkFigure7(b *testing.B) { benchRender(b, "F7") }
func BenchmarkFigure8(b *testing.B) { benchRender(b, "F8") }
func BenchmarkFigure9(b *testing.B) { benchRender(b, "F9") }
func BenchmarkOverlap(b *testing.B) { benchRender(b, "OVERLAP") }

// BenchmarkFullCampaign runs the entire pipeline (build, serve, three
// discovery scans, stateful scans, ablation) per iteration, at a
// smaller scale than the fixture.
func BenchmarkFullCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(experiments.Options{
			Spec:       internet.Spec{Seed: uint64(i) + 1, Scale: 32768, ASScale: 128, DomainScale: 131072},
			SkipWeekly: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep.Close()
	}
}

// ---- ablation benchmarks (DESIGN.md Section 4) --------------------------

// BenchmarkPaddingAblation compares the wire cost of padded vs
// unpadded forced-VN probes; the response-rate consequence is the
// PADDING experiment.
func BenchmarkPaddingAblation(b *testing.B) {
	addr := netip.MustParseAddr("192.0.2.1")
	b.Run("padded", func(b *testing.B) {
		s := &zmapquic.Scanner{}
		total := 0
		for i := 0; i < b.N; i++ {
			total += len(s.BuildProbe(addr))
		}
		b.ReportMetric(float64(total)/float64(b.N), "probe-bytes")
	})
	b.Run("unpadded", func(b *testing.B) {
		s := &zmapquic.Scanner{NoPadding: true}
		total := 0
		for i := 0; i < b.N; i++ {
			total += len(s.BuildProbe(addr))
		}
		b.ReportMetric(float64(total)/float64(b.N), "probe-bytes")
	})
}

// BenchmarkDiscoveryCost reports bytes-on-wire per discovered target
// for each method, from the campaign fixture.
func BenchmarkDiscoveryCost(b *testing.B) {
	r := benchCampaign(b)
	wd := r.Headline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wd
	}
	if n := len(wd.V4.ZMap); n > 0 {
		b.ReportMetric(float64(wd.ZMapBytesV4)/float64(n), "zmap-bytes/target")
	}
	b.ReportMetric(float64(len(wd.V4.HTTPSRR)), "https-rr-targets")
	b.ReportMetric(float64(len(wd.V4.AltSvc)), "alt-svc-targets")
}

// ---- protocol substrate micro-benchmarks --------------------------------

func BenchmarkVarintAppendParse(b *testing.B) {
	vals := []uint64{37, 15293, 494878333, 151288809941952652}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, v := range vals {
			buf = quicwire.AppendVarint(buf, v)
		}
		rest := buf
		for len(rest) > 0 {
			_, n, err := quicwire.ParseVarint(rest)
			if err != nil {
				b.Fatal(err)
			}
			rest = rest[n:]
		}
	}
}

func BenchmarkLongHeaderParse(b *testing.B) {
	h := &quicwire.Header{
		Type: quicwire.PacketInitial, Version: quicwire.Version1,
		DstID: quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}, SrcID: quicwire.ConnID{8, 7, 6, 5},
		Token: []byte("token"), PacketNumber: 1, PacketNumberLen: 2,
	}
	pkt, _ := quicwire.AppendLongHeader(nil, h, 1200)
	pkt = append(pkt, make([]byte, 1200)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := quicwire.ParseLongHeader(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	frames := []quicwire.Frame{
		&quicwire.AckFrame{Ranges: []quicwire.AckRange{{Smallest: 0, Largest: 100}}},
		&quicwire.CryptoFrame{Offset: 0, Data: make([]byte, 512)},
		&quicwire.StreamFrame{StreamID: 0, Data: make([]byte, 256), Fin: true},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf []byte
		for _, f := range frames {
			buf = f.Append(buf)
		}
		if _, err := quicwire.ParseFrames(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInitialSealOpen(b *testing.B) {
	dcid := quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}
	ik, err := quiccrypto.NewInitialKeys(quicwire.Version1, dcid)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1162)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := &quicwire.Header{Type: quicwire.PacketInitial, Version: quicwire.Version1,
			DstID: dcid, PacketNumber: uint64(i), PacketNumberLen: 4}
		pkt, pnOff := quicwire.AppendLongHeader(nil, h, len(payload)+quiccrypto.SealOverhead)
		pkt = append(pkt, payload...)
		sealed := ik.Client.SealPacket(pkt, pnOff, 4, uint64(i))
		if _, _, _, err := ik.Client.OpenPacket(sealed, pnOff, int64(i)-1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChaCha20Poly1305(b *testing.B) {
	key := make([]byte, 32)
	aead, err := quiccrypto.NewChaCha20Poly1305(key)
	if err != nil {
		b.Fatal(err)
	}
	nonce := make([]byte, 12)
	msg := make([]byte, 1350)
	aad := make([]byte, 32)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ct := aead.Seal(nil, nonce, msg, aad)
		if _, err := aead.Open(ct[:0], nonce, ct, aad); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVNProbe(b *testing.B) {
	s := &zmapquic.Scanner{}
	addr := netip.MustParseAddr("203.0.113.7")
	probe := s.BuildProbe(addr)
	hdr, _, _ := quicwire.ParseLongHeader(probe)
	resp := quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0,
		[]quicwire.Version{quicwire.VersionDraft29, quicwire.VersionDraft28, quicwire.VersionDraft27})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BuildProbe(addr)
		if _, ok := s.ValidateResponse(addr, resp); !ok {
			b.Fatal("validation failed")
		}
	}
}

func BenchmarkQPACKHeaders(b *testing.B) {
	fields := []h3.HeaderField{
		{Name: ":method", Value: "HEAD"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "www.example.org"},
		{Name: ":path", Value: "/"},
		{Name: "user-agent", Value: "qscanner/1.0"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := h3.EncodeHeaders(fields)
		if _, err := h3.DecodeHeaders(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCurves pins the TLS key exchange to X25519 for both handshake
// benchmarks: the paper's measurement window predates the post-quantum
// hybrid (X25519MLKEM768) Go now negotiates by default, and the
// ML-KEM keygen/encapsulation otherwise adds identical noise to both
// arms of the resumed-vs-full comparison.
var benchCurves = []tls.CurveID{tls.X25519}

// BenchmarkQUICHandshake measures the scanner-side cost of one cold
// stateful probe — fresh socket, fresh transport, full TLS handshake
// against the out-of-process loopback responder (see
// bench_server_test.go), one HTTP/3 HEAD exchange — the baseline that
// BenchmarkResumedHandshake amortizes.
func BenchmarkQUICHandshake(b *testing.B) {
	remote, pool := startBenchH3Server(b)
	raddr := net.UDPAddrFromAddrPort(remote)

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		conn, err := quic.Dial(ctx, cpc, raddr, &quic.Config{
			TLS:              &tls.Config{RootCAs: pool, ServerName: "bench.example", NextProtos: []string{"h3"}, CurvePreferences: benchCurves},
			HandshakeTimeout: 5 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		hc, err := h3.NewClientConn(conn)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := hc.RoundTrip(ctx, "HEAD", "bench.example", "/", nil)
		if err != nil || resp.Status != "200" {
			b.Fatalf("round trip: %v %v", resp, err)
		}
		conn.Close()
	}
}

// BenchmarkResumedHandshake measures the handshake fast path that
// BenchmarkQUICHandshake is the slow baseline for: the same responder
// and HTTP/3 exchange, but every timed dial resumes a cached session
// over a shared transport and sends the request as 0-RTT early data,
// so the scanner skips the socket setup, the certificate chain, and
// the server's RSA CertificateVerify round trip. The acceptance bar
// (scripts/bench.sh) is resumed <= 0.5x the ns/op of the full
// handshake; allocs/op carries a 1.15x regression bound instead,
// because Go's psk_dhe_ke resumption allocates slightly more
// client-side than the certificate path it skips (DESIGN.md §14).
func BenchmarkResumedHandshake(b *testing.B) {
	remote, pool := startBenchH3Server(b)
	raddr := net.UDPAddrFromAddrPort(remote)

	cpc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := quic.NewTransport(cpc)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	cache := quic.NewSessionCache(0)
	cfg := func() *quic.Config {
		return &quic.Config{
			TLS:              &tls.Config{RootCAs: pool, ServerName: "bench.example", NextProtos: []string{"h3"}, CurvePreferences: benchCurves},
			HandshakeTimeout: 5 * time.Second,
			SessionCache:     cache,
		}
	}

	// Warm dial: a full handshake that populates the cache.
	ctx := context.Background()
	warm, err := tr.Dial(ctx, raddr, cfg())
	if err != nil {
		b.Fatal(err)
	}
	select {
	case <-warm.SessionTicketReceived():
	case <-time.After(5 * time.Second):
		b.Fatal("no session ticket after the warm dial")
	}
	warm.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := tr.DialEarly(ctx, raddr, cfg())
		if err != nil {
			b.Fatal(err)
		}
		hc, err := h3.NewClientConn(conn)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := hc.RoundTrip(ctx, "HEAD", "bench.example", "/", nil)
		if err != nil || resp.Status != "200" {
			b.Fatalf("round trip: %v %v", resp, err)
		}
		if err := conn.HandshakeComplete(ctx); err != nil {
			b.Fatal(err)
		}
		if !conn.Resumed() {
			b.Fatal("dial did not resume")
		}
		conn.Close()
	}
}

// BenchmarkRescanCampaign measures a rescan pass of the stateful
// scanner over 0-RTT-capable deployments of the campaign universe:
// the full arm handshakes from scratch each pass, the resumed arm
// shares a session cache warmed by one untimed pass, so every timed
// dial resumes and carries its HTTP/3 request in 0-RTT.
func BenchmarkRescanCampaign(b *testing.B) {
	r := benchCampaign(b)
	var targets []core.Target
	for _, d := range r.Universe.Deployments {
		if d.Behavior == internet.BehaviorActive && d.Addr.Is4() && len(d.Domains) > 0 &&
			d.Profile.Quirks.Resumption == internet.Resumption0RTT {
			targets = append(targets, core.Target{Addr: d.Addr, SNI: d.Domains[0]})
		}
		if len(targets) == 16 {
			break
		}
	}
	if len(targets) < 4 {
		b.Fatalf("only %d 0-RTT-capable active deployments", len(targets))
	}
	ctx := context.Background()
	pass := func(b *testing.B, sc *core.Scanner) {
		results := sc.Scan(ctx, targets)
		if s := core.Summarize(results); s.Success != len(targets) {
			b.Fatalf("rescan pass: %s", s)
		}
	}
	newScanner := func(cache *quic.SessionCache) *core.Scanner {
		return &core.Scanner{
			DialPacket:   func() (net.PacketConn, error) { return r.Universe.Net.DialUDP() },
			RootCAs:      r.Universe.RootCAs(),
			Timeout:      5 * time.Second,
			Workers:      8,
			SessionCache: cache,
		}
	}
	b.Run("full", func(b *testing.B) {
		sc := newScanner(nil)
		defer sc.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(b, sc)
		}
	})
	b.Run("resumed", func(b *testing.B) {
		sc := newScanner(quic.NewSessionCache(0))
		defer sc.Close()
		pass(b, sc) // warm pass fills the ticket and token caches
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass(b, sc)
		}
	})
}

// BenchmarkQScannerTarget measures one stateful scan including
// classification and HTTP/3 collection.
func BenchmarkQScannerTarget(b *testing.B) {
	r := benchCampaign(b)
	var target core.Target
	for _, d := range r.Universe.Deployments {
		if d.Behavior == internet.BehaviorActive && len(d.Domains) > 0 && d.Addr.Is4() {
			target = core.Target{Addr: d.Addr, SNI: d.Domains[0]}
			break
		}
	}
	if !target.Addr.IsValid() {
		b.Fatal("no active deployment")
	}
	sc := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return r.Universe.Net.DialUDP() },
		RootCAs:    r.Universe.RootCAs(),
		Timeout:    2 * time.Second,
	}
	defer sc.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sc.ScanTarget(ctx, target)
		if res.Outcome != core.OutcomeSuccess {
			b.Fatalf("scan failed: %s (%s)", res.Outcome, res.Error)
		}
	}
}

// BenchmarkScanSocketChurn quantifies the shared-transport win on the
// socket-heavy path: every probed address answers instantly with a
// Version Negotiation packet, so the benchmark isolates socket and
// routing overhead from crypto. The shared-transport arm multiplexes
// all 64 targets per iteration over a fixed pool; the dial-per-target
// arm reproduces the seed's behaviour of one socket (and one transport
// teardown) per target.
func BenchmarkScanSocketChurn(b *testing.B) {
	benchmarkScanSocketChurn(b)
}

// vnOnlyVersions is the fixed VN answer used by the churn and
// telemetry benchmarks; hoisted so the responder does not rebuild it
// per probe.
var vnOnlyVersions = []quicwire.Version{quicwire.VersionGoogleQ050}

// newVNOnlyWorld builds the benchmark world: a simnet where every
// target replies to any long-header packet with a Version Negotiation
// offering only Q050. The responder keeps its own allocations minimal
// (scratch header parse, presized reply) so the benchmark measures the
// scanner, not the harness.
func newVNOnlyWorld() *simnet.Network {
	n := simnet.New(simnet.Config{})
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		var hdr quicwire.Header
		if _, err := quicwire.ParseLongHeaderInto(&hdr, payload); err != nil {
			return nil
		}
		return [][]byte{quicwire.AppendVersionNegotiation(make([]byte, 0, 64), hdr.SrcID, hdr.DstID, 0, vnOnlyVersions)}
	})
	return n
}

func benchmarkScanSocketChurn(b *testing.B) {
	const targetCount = 64
	newVNWorld := newVNOnlyWorld
	targets := make([]core.Target, targetCount)
	for i := range targets {
		targets[i] = core.Target{Addr: netip.AddrFrom4([4]byte{100, 64, 0, byte(i)})}
	}

	b.Run("shared-transport", func(b *testing.B) {
		n := newVNWorld()
		defer n.Close()
		sc := &core.Scanner{
			DialPacket: func() (net.PacketConn, error) { return n.DialUDP() },
			Timeout:    2 * time.Second,
			Workers:    32,
			PoolSize:   4,
			SkipHTTP:   true,
		}
		defer sc.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results := sc.Scan(ctx, targets)
			if core.Summarize(results).VersionMismatch != targetCount {
				b.Fatalf("unexpected outcomes: %s", core.Summarize(results))
			}
		}
		b.StopTimer()
		if st, ok := sc.TransportStats(); ok {
			b.ReportMetric(float64(st.Sockets), "sockets")
		}
	})

	b.Run("dial-per-target", func(b *testing.B) {
		n := newVNWorld()
		defer n.Close()
		ctx := context.Background()
		var sockets atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			sem := make(chan struct{}, 32)
			for _, t := range targets {
				wg.Add(1)
				sem <- struct{}{}
				go func(t core.Target) {
					defer wg.Done()
					defer func() { <-sem }()
					pc, err := n.DialUDP()
					if err != nil {
						b.Error(err)
						return
					}
					sockets.Add(1)
					remote := net.UDPAddrFromAddrPort(netip.AddrPortFrom(t.Addr, 443))
					_, err = quic.Dial(ctx, pc, remote, &quic.Config{HandshakeTimeout: 2 * time.Second})
					var vne *quic.VersionNegotiationError
					if !errors.As(err, &vne) {
						b.Errorf("target %v: %v", t.Addr, err)
					}
				}(t)
			}
			wg.Wait()
		}
		b.StopTimer()
		b.ReportMetric(float64(sockets.Load()/int64(b.N)), "sockets")
	})
}

// BenchmarkSimnetDialClose prices a socket nobody sends to: what a
// scanner pays to open and close one, and what every idle listener in
// a universe holds. B/op and allocs/op are exact, so check.sh gates
// both (the receive queue used to be allocated at its 4096-datagram
// bound: 229 KB per socket).
func BenchmarkSimnetDialClose(b *testing.B) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc, err := n.DialUDP()
		if err != nil {
			b.Fatal(err)
		}
		pc.Close()
	}
}

// BenchmarkDNSResolveBatch resolves 4096 names per iteration with the
// campaign's 64 workers against a dnsserver on the in-memory network:
// the bulk-resolution stage in isolation. sockets/op is the resolver's
// socket economy (one per worker, not one per query).
func BenchmarkDNSResolveBatch(b *testing.B) {
	const nameCount, workers = 4096, 64
	n := simnet.New(simnet.Config{})
	defer n.Close()
	spc, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.53:53"))
	if err != nil {
		b.Fatal(err)
	}
	zone := dnsserver.NewZone()
	names := make([]string, nameCount)
	for i := range names {
		names[i] = "d" + strconv.Itoa(i) + ".bench.test"
		zone.Add(dnswire.Record{Name: names[i], Type: dnswire.TypeA, TTL: 60,
			Addr: netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)})})
	}
	srv := dnsserver.Serve(spc, zone)
	defer srv.Close()
	var sockets atomic.Int64
	cl := &dnsclient.Client{
		Server: spc.LocalAddr(),
		DialPacket: func() (net.PacketConn, error) {
			sockets.Add(1)
			return n.DialUDP()
		},
	}
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range cl.ResolveBatch(ctx, names, dnswire.TypeA, workers) {
			if r.Err != nil || len(r.Records) != 1 {
				b.Fatalf("%s: %v %v", r.Name, r.Records, r.Err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	queries := float64(b.N) * nameCount
	b.ReportMetric(queries/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/queries, "B/query")
	b.ReportMetric(float64(sockets.Load())/float64(b.N), "sockets/op")
}

// BenchmarkZmapSweep drives a full stateless sweep — 256 targets per
// iteration, every one answering instantly with a Version Negotiation
// packet — through one shared socket over the in-memory network. The
// allocs/probe metric is the templating win: patching CIDs into a
// reused probe copy and validating responses against a pooled HMAC
// keeps per-probe allocation O(1) regardless of sweep size.
func BenchmarkZmapSweep(b *testing.B) {
	const targetCount = 256
	n := simnet.New(simnet.Config{})
	defer n.Close()
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		hdr, _, err := quicwire.ParseLongHeader(payload)
		if err != nil {
			return nil
		}
		return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0,
			[]quicwire.Version{quicwire.VersionDraft29, quicwire.VersionGoogleQ050})}
	})
	pc, err := n.DialUDP()
	if err != nil {
		b.Fatal(err)
	}
	s := &zmapquic.Scanner{Conn: pc, Cooldown: 20 * time.Millisecond}
	addrs := make([]netip.Addr, targetCount)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{100, 65, byte(i >> 8), byte(i)})
	}
	ctx := context.Background()

	// Warm the template, pools, and responder before counting.
	if _, _, err := s.ScanAddrs(ctx, addrs[:4]); err != nil {
		b.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, st, err := s.ScanAddrs(ctx, addrs)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != targetCount || st.ProbesSent != targetCount {
			b.Fatalf("sweep incomplete: %d results, %d probes", len(results), st.ProbesSent)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*targetCount), "allocs/probe")
}

// concealBatch hides a PacketConn's native BatchConn implementation so
// netbatch.Wrap falls back to one WriteTo per datagram — the
// pre-batching baseline for BenchmarkBatchSweep.
type concealBatch struct{ pc net.PacketConn }

func (c concealBatch) ReadFrom(p []byte) (int, net.Addr, error)  { return c.pc.ReadFrom(p) }
func (c concealBatch) WriteTo(p []byte, a net.Addr) (int, error) { return c.pc.WriteTo(p, a) }
func (c concealBatch) Close() error                              { return c.pc.Close() }
func (c concealBatch) LocalAddr() net.Addr                       { return c.pc.LocalAddr() }
func (c concealBatch) SetDeadline(t time.Time) error             { return c.pc.SetDeadline(t) }
func (c concealBatch) SetReadDeadline(t time.Time) error         { return c.pc.SetReadDeadline(t) }
func (c concealBatch) SetWriteDeadline(t time.Time) error        { return c.pc.SetWriteDeadline(t) }

// BenchmarkBatchSweep prices batched socket I/O: the same 4096-target
// sweep over the same simulated world, once through the conn's native
// batch implementation (one WriteBatch per flushed batch — one
// sendmmsg on real Linux sockets) and once with batching concealed so
// every datagram pays its own write call. syscalls/probe counts batch
// flushes vs per-datagram fallback writes from the telemetry registry,
// the in-tree stand-in for sendmmsg vs sendto counts; probes/sec is
// the sweep throughput including the response collection cooldown.
func BenchmarkBatchSweep(b *testing.B) {
	const targetCount = 4096
	addrs := make([]netip.Addr, targetCount)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{100, 66, byte(i >> 8), byte(i)})
	}
	ctx := context.Background()

	arm := func(b *testing.B, conceal bool, callCounter string) {
		n := simnet.New(simnet.Config{})
		defer n.Close()
		n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
			var hdr quicwire.Header
			if _, err := quicwire.ParseLongHeaderInto(&hdr, payload); err != nil {
				return nil
			}
			return [][]byte{quicwire.AppendVersionNegotiation(make([]byte, 0, 64), hdr.SrcID, hdr.DstID, 0, vnOnlyVersions)}
		})
		pc, err := n.DialUDP()
		if err != nil {
			b.Fatal(err)
		}
		var conn net.PacketConn = pc
		if conceal {
			conn = concealBatch{pc}
		}
		s := &zmapquic.Scanner{Conn: conn, Cooldown: 10 * time.Millisecond}

		// Warm the template, pools, and responder before counting.
		if _, _, err := s.ScanAddrs(ctx, addrs[:8]); err != nil {
			b.Fatal(err)
		}
		snap := telemetry.Default().Snapshot()
		callsBefore := snap.Counters[callCounter]
		probesBefore := snap.Counters["zmapquic_probes_sent_total"]

		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			results, st, err := s.ScanAddrs(ctx, addrs)
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != targetCount || st.ProbesSent != targetCount {
				b.Fatalf("sweep incomplete: %d results, %d probes", len(results), st.ProbesSent)
			}
		}
		elapsed := time.Since(start)
		b.StopTimer()

		snap = telemetry.Default().Snapshot()
		probes := float64(snap.Counters["zmapquic_probes_sent_total"] - probesBefore)
		calls := float64(snap.Counters[callCounter] - callsBefore)
		if probes > 0 {
			b.ReportMetric(calls/probes, "syscalls/probe")
			b.ReportMetric(probes/elapsed.Seconds(), "probes/sec")
		}
	}

	b.Run("batched", func(b *testing.B) { arm(b, false, "zmapquic_batch_flushes_total") })
	b.Run("one-per-syscall", func(b *testing.B) { arm(b, true, "netbatch_fallback_writes_total") })
}

// BenchmarkCampaignSweep measures the campaign engine's orchestration
// overhead per swept address — shard walk, rate gate (unlimited),
// cursor bookkeeping, null sink — for a sharded campaign vs the
// single-shard degenerate case. The two arms walk the same /18, so
// their ns/op gap is the cost of coordination, not of the sweep.
func BenchmarkCampaignSweep(b *testing.B) {
	prefixes := []netip.Prefix{netip.MustParsePrefix("10.200.0.0/18")}
	const total = 1 << 14
	arm := func(b *testing.B, shards, workers int) {
		b.ReportAllocs()
		// The churn benchmarks that precede this one in the harness leave
		// tens of MB of garbage behind; collect it so their GC debt isn't
		// billed to the campaign orchestration loop.
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var probes atomic.Uint64
			eng, err := campaignpkg.New(campaignpkg.Config{
				Sweep:   zmapquic.NewSweep(uint64(i)+1, prefixes),
				Shards:  shards,
				Workers: workers,
				Probe: func(context.Context, netip.Addr) error {
					probes.Add(1)
					return nil
				},
				Sink: campaignpkg.NullSink{},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			if probes.Load() != total {
				b.Fatalf("covered %d of %d", probes.Load(), total)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/addr")
	}
	b.Run("sharded-8", func(b *testing.B) { arm(b, 8, 8) })
	b.Run("single-shard", func(b *testing.B) { arm(b, 1, 1) })
}

// BenchmarkSweepPermutation measures the ZMap-style address
// permutation throughput.
func BenchmarkSweepPermutation(b *testing.B) {
	sw := zmapquic.NewSweep(1, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")})
	done := make(chan struct{})
	defer close(done)
	ch := sw.Addresses(done)
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		if _, ok := <-ch; !ok {
			// Restart the sweep when exhausted.
			ch = zmapquic.NewSweep(uint64(i), []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")}).Addresses(done)
		}
		count++
	}
	_ = count
}

// BenchmarkASLookup measures the longest-prefix-match join.
func BenchmarkASLookup(b *testing.B) {
	r := benchCampaign(b)
	addrs := r.Headline().V4.ZMapKeys()
	if len(addrs) == 0 {
		b.Fatal("no addresses")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Universe.ASDB.Lookup(addrs[i%len(addrs)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkCDF measures the AS-rank CDF computation of Figures 4/8.
func BenchmarkCDF(b *testing.B) {
	r := benchCampaign(b)
	addrs := r.Headline().V4.ZMapKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf := analysis.ComputeASRankCDF(r.Universe.ASDB, "bench", addrs)
		if cdf.ShareAt(1) <= 0 {
			b.Fatal("empty CDF")
		}
	}
}

// ---- telemetry overhead -------------------------------------------------

// BenchmarkTelemetryOverhead quantifies what the always-on metrics
// registry costs on the scanner's hot path, running the same
// 64-target VN scan as BenchmarkScanSocketChurn/shared-transport; the
// disabled arm flips the registry's global kill switch, reducing every
// counter update to one atomic load.
//
// Separate enabled/disabled sub-benchmarks proved noise-dominated:
// scheduler drift between the two runs routinely exceeded the true
// delta and produced negative "overhead". Each iteration therefore
// times one enabled and one disabled scan back to back (alternating
// which goes first), and the reported overhead_pct is the median of
// the per-pair deltas — scripts/bench.sh fails only on a positive
// regression beyond the noise floor.
func BenchmarkTelemetryOverhead(b *testing.B) {
	const targetCount = 64
	targets := make([]core.Target, targetCount)
	for i := range targets {
		targets[i] = core.Target{Addr: netip.AddrFrom4([4]byte{100, 64, 1, byte(i)})}
	}

	n := newVNOnlyWorld()
	defer n.Close()
	sc := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return n.DialUDP() },
		Timeout:    2 * time.Second,
		Workers:    32,
		PoolSize:   4,
		SkipHTTP:   true,
	}
	defer sc.Close()
	ctx := context.Background()
	scan := func() {
		results := sc.Scan(ctx, targets)
		if core.Summarize(results).VersionMismatch != targetCount {
			b.Fatalf("unexpected outcomes: %s", core.Summarize(results))
		}
	}
	measure := func(enabled bool) time.Duration {
		telemetry.SetEnabled(enabled)
		start := time.Now()
		scan()
		return time.Since(start)
	}
	defer telemetry.SetEnabled(true)
	scan() // warm sockets, route shards and counter children

	deltas := make([]float64, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var on, off time.Duration
		if i%2 == 0 {
			on = measure(true)
			off = measure(false)
		} else {
			off = measure(false)
			on = measure(true)
		}
		deltas = append(deltas, 100*(on.Seconds()-off.Seconds())/off.Seconds())
	}
	b.StopTimer()
	sort.Float64s(deltas)
	b.ReportMetric(deltas[len(deltas)/2], "overhead_pct")
}

// Registry primitive micro-benchmarks: the per-update costs producers
// pay inline on packet and scan paths.
func BenchmarkTelemetryPrimitives(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_counter_total")
	g := reg.Gauge("bench_gauge")
	h := reg.Histogram("bench_hist_ms", telemetry.LatencyBucketsMs())
	vec := reg.CounterVec("bench_vec_total", "label")
	child := vec.With("hot")

	b.Run("counter-inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Set(int64(i))
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i % 1000))
		}
	})
	b.Run("countervec-with", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.With("hot").Inc()
		}
	})
	b.Run("countervec-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			child.Inc()
		}
	})
	b.Run("counter-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
}
