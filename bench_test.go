// Package quicscan's root benchmarks hold what the repository benchmark
// (bench/, BENCHMARK.json) has no counterpart for: the handshake pair on
// an out-of-process RSA responder, the scanner-side operations whose
// allocation counts budget_test.go holds, the telemetry-overhead
// interleave, BenchmarkQScannerTarget for scripts/allocs.sh,
// BenchmarkUniverseScan for scripts/heap.sh, BenchmarkEngineSweep for
// scripts/cpu.sh, and the paper's two cost
// ablations. Everything the ledger measures at the same
// cut lives only there; DESIGN.md §17 maps each retired benchmark and
// gate to what holds it now.
//
//	go test -run '^$' -bench . -benchmem
package quicscan

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	campaignpkg "quicscan/internal/campaign"
	"quicscan/internal/core"
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

// ---- ablation benchmarks (DESIGN.md Section 4) --------------------------

// BenchmarkPaddingAblation compares the wire cost of padded vs
// unpadded forced-VN probes; the response-rate consequence is the
// PADDING experiment.
func BenchmarkPaddingAblation(b *testing.B) {
	addr := netip.MustParseAddr("192.0.2.1")
	for _, arm := range []struct {
		name      string
		noPadding bool
	}{{"padded", false}, {"unpadded", true}} {
		b.Run(arm.name, func(b *testing.B) {
			s := &zmapquic.Scanner{NoPadding: arm.noPadding}
			total := 0
			for i := 0; i < b.N; i++ {
				total += len(s.BuildProbe(addr))
			}
			b.ReportMetric(float64(total)/float64(b.N), "probe-bytes")
		})
	}
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

// ---- packet protection ---------------------------------------------------

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

// ---- the handshake pair -------------------------------------------------

// benchCurves pins the TLS key exchange to X25519 for both dials: the
// paper's measurement window predates the post-quantum hybrid
// (X25519MLKEM768) Go now negotiates by default, and the ML-KEM
// keygen/encapsulation otherwise adds identical noise to both arms of
// the resumed-vs-full comparison.
var benchCurves = []tls.CurveID{tls.X25519}

// newHandshakeDials starts the out-of-process loopback responder (see
// bench_server_test.go) and returns the two dials every handshake
// figure in this package is made of, each with one HTTP/3 HEAD
// exchange. full is the scanner-side cost of one cold stateful probe:
// fresh socket, fresh transport, full TLS handshake. resumed is the
// fast path that amortizes it: a session cached by one untimed warm
// dial is resumed over a shared transport and the request leaves as
// 0-RTT early data, so the scanner skips the socket setup, the
// certificate chain and the server's RSA CertificateVerify round trip.
func newHandshakeDials(tb testing.TB) (full, resumed func()) {
	tb.Helper()
	remote, pool := startBenchH3Server(tb)
	raddr := net.UDPAddrFromAddrPort(remote)
	ctx := context.Background()
	cfg := func(cache *quic.SessionCache) *quic.Config {
		return &quic.Config{
			TLS:              &tls.Config{RootCAs: pool, ServerName: "bench.example", NextProtos: []string{"h3"}, CurvePreferences: benchCurves},
			HandshakeTimeout: 5 * time.Second,
			SessionCache:     cache,
		}
	}
	head := func(conn *quic.Conn) {
		hc, err := h3.NewClientConn(conn)
		if err != nil {
			tb.Fatal(err)
		}
		resp, err := hc.RoundTrip(ctx, "HEAD", "bench.example", "/", nil)
		if err != nil || resp.Status != "200" {
			tb.Fatalf("round trip: %v %v", resp, err)
		}
	}

	full = func() {
		cpc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		conn, err := quic.Dial(ctx, cpc, raddr, cfg(nil))
		if err != nil {
			tb.Fatal(err)
		}
		head(conn)
		conn.Close()
	}

	cpc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := quic.NewTransport(cpc)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tr.Close() })
	cache := quic.NewSessionCache(0)
	// Warm dial: a full handshake that populates the cache.
	warm, err := tr.Dial(ctx, raddr, cfg(cache))
	if err != nil {
		tb.Fatal(err)
	}
	select {
	case <-warm.SessionTicketReceived():
	case <-time.After(5 * time.Second):
		tb.Fatal("no session ticket after the warm dial")
	}
	warm.Close()
	resumed = func() {
		conn, err := tr.DialEarly(ctx, raddr, cfg(cache))
		if err != nil {
			tb.Fatal(err)
		}
		head(conn)
		if err := conn.HandshakeComplete(ctx); err != nil {
			tb.Fatal(err)
		}
		if !conn.Resumed() {
			tb.Fatal("dial did not resume")
		}
		conn.Close()
	}
	return full, resumed
}

// loop is the body of a benchmark that prices one closure.
func loop(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkQUICHandshake(b *testing.B) {
	full, _ := newHandshakeDials(b)
	loop(b, full)
}

func BenchmarkResumedHandshake(b *testing.B) {
	_, resumed := newHandshakeDials(b)
	loop(b, resumed)
}

// gateIterations is the b.N scripts/check.sh runs the two self-judging
// benchmarks with (-benchtime 50x): below it a median is an anecdote
// and the benchmark only reports.
const gateIterations = 50

// medianOfPairs times b.N back-to-back pairs of x and y, alternating
// which goes first, and returns the median of stat over the pairs.
// Two separately timed arms proved noise-dominated: scheduler drift
// between the runs routinely exceeded the true difference. A pair
// shares its weather, and the median drops the pairs that did not.
func medianOfPairs(b *testing.B, x, y func(), stat func(x, y time.Duration) float64) float64 {
	timed := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	stats := make([]float64, b.N)
	b.ResetTimer()
	for i := range stats {
		var tx, ty time.Duration
		if i%2 == 0 {
			tx, ty = timed(x), timed(y)
		} else {
			ty, tx = timed(y), timed(x)
		}
		stats[i] = stat(tx, ty)
	}
	b.StopTimer()
	sort.Float64s(stats)
	return stats[len(stats)/2]
}

// BenchmarkResumedHandshakeRatio holds the fast path's wall clock: a
// resumed dial must finish in at most half the time of a full one
// (measured ≈ 0.4). An iteration is one full and one resumed dial.
// The allocation side of the pair is a count, not a timing, and is
// held by TestResumedHandshakeAllocSurcharge.
func BenchmarkResumedHandshakeRatio(b *testing.B) {
	full, resumed := newHandshakeDials(b)
	for i := 0; i < 5; i++ { // socket buffers, pools and the responder's caches
		full()
		resumed()
	}
	ratio := medianOfPairs(b, full, resumed, func(full, resumed time.Duration) float64 {
		return resumed.Seconds() / full.Seconds()
	})
	b.ReportMetric(ratio, "resumed/full")
	if b.N >= gateIterations && ratio > 0.5 {
		b.Errorf("median resumed/full wall clock %.3f over %d pairs, want <= 0.5", ratio, b.N)
	}
}

// ---- scanner-side operations priced by budget_test.go -------------------

// BenchmarkQScannerTarget measures one stateful scan including
// classification and HTTP/3 collection; scripts/allocs.sh profiles it.
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

// scanUniverse is BenchmarkUniverseScan's started universe. It is never
// stopped: the heap profile `go test -memprofile` writes when the
// benchmarks are done is then taken with the universe up and every
// scanner closed, the state bench/'s heap_live_mb is defined in.
var (
	scanUniverseOnce sync.Once
	scanUniverse     *internet.Universe
	scanUniverseErr  error
)

// BenchmarkUniverseScan is one pass of the stateful scanner over every
// responsive deployment of the seed-9, scale-2048 universe the
// repository benchmark uses: each active deployment with a domain, SNI =
// its first domain. scripts/heap.sh (`make heap`) runs it and
// attributes the live heap it leaves behind; "heap-live-MB" is that heap
// as HeapAlloc after a forced collection.
func BenchmarkUniverseScan(b *testing.B) {
	scanUniverseOnce.Do(func() {
		scanUniverse = internet.Build(internet.Spec{Seed: 9, Scale: 2048})
		scanUniverseErr = scanUniverse.Start(internet.StartOptions{Stateful: true})
	})
	if scanUniverseErr != nil {
		b.Fatal(scanUniverseErr)
	}
	u := scanUniverse
	var targets []core.Target
	for _, d := range u.Deployments {
		if d.Behavior == internet.BehaviorActive && len(d.Domains) > 0 {
			targets = append(targets, core.Target{Addr: d.Addr, SNI: d.Domains[0]})
		}
	}
	sc := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:    u.RootCAs(),
		Timeout:    2 * time.Second,
		Workers:    2,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := core.Summarize(sc.Scan(ctx, targets)); s.Success != len(targets) {
			b.Fatalf("scan of %d responsive deployments: %s", len(targets), s)
		}
	}
	b.StopTimer()
	sc.Close()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.ReportMetric(float64(len(targets)), "targets")
	b.ReportMetric(float64(m.HeapAlloc)/(1<<20), "heap-live-MB")
}

// vnOnlyVersions is the fixed VN answer of the VN-only world; hoisted
// so the responder does not rebuild it per probe.
var vnOnlyVersions = []quicwire.Version{quicwire.VersionGoogleQ050}

// newVNOnlyWorld builds a simnet where every address replies to any
// long-header packet with a Version Negotiation offering only Q050, so
// a scan of it isolates socket and routing overhead from crypto. The
// responder keeps its own allocations minimal (scratch header parse,
// presized reply) so the figures are the scanner's, not the harness's.
func newVNOnlyWorld(tb testing.TB) *simnet.Network {
	n := simnet.New(simnet.Config{})
	tb.Cleanup(n.Close)
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		var hdr quicwire.Header
		if _, err := quicwire.ParseLongHeaderInto(&hdr, payload); err != nil {
			return nil
		}
		return [][]byte{quicwire.AppendVersionNegotiation(make([]byte, 0, 64), hdr.SrcID, hdr.DstID, 0, vnOnlyVersions)}
	})
	return n
}

// vnTargets are the addresses a VN scan visits.
func vnTargets() []core.Target {
	targets := make([]core.Target, 64)
	for i := range targets {
		targets[i] = core.Target{Addr: netip.AddrFrom4([4]byte{100, 64, 0, byte(i)})}
	}
	return targets
}

// newVNScan returns one scan of the 64 VN-only targets multiplexed
// over a fixed pool of 4 shared sockets: the socket-heavy path.
func newVNScan(tb testing.TB) (scan func(), sc *core.Scanner) {
	n := newVNOnlyWorld(tb)
	sc = &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return n.DialUDP() },
		Timeout:    2 * time.Second,
		Workers:    32,
		PoolSize:   4,
		SkipHTTP:   true,
	}
	tb.Cleanup(func() { sc.Close() })
	targets := vnTargets()
	ctx := context.Background()
	return func() {
		if s := core.Summarize(sc.Scan(ctx, targets)); s.VersionMismatch != len(targets) {
			tb.Fatalf("unexpected outcomes: %s", s)
		}
	}, sc
}

// BenchmarkScanSocketChurn quantifies the shared-transport win. The
// dial-per-target arm reproduces the seed's behaviour of one socket
// (and one transport teardown) per target.
func BenchmarkScanSocketChurn(b *testing.B) {
	b.Run("shared-transport", func(b *testing.B) {
		scan, sc := newVNScan(b)
		loop(b, scan)
		b.StopTimer()
		if st, ok := sc.TransportStats(); ok {
			b.ReportMetric(float64(st.Sockets), "sockets")
		}
	})

	b.Run("dial-per-target", func(b *testing.B) {
		n := newVNOnlyWorld(b)
		targets := vnTargets()
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

// newSimnetDialClose returns the open and close of a socket nobody
// sends to: what a scanner pays per socket, and what every idle
// listener in a universe holds (in bytes: simnet's
// TestIdleSocketFootprint).
func newSimnetDialClose(tb testing.TB) func() {
	n := simnet.New(simnet.Config{})
	tb.Cleanup(n.Close)
	return func() {
		pc, err := n.DialUDP()
		if err != nil {
			tb.Fatal(err)
		}
		pc.Close()
	}
}

func BenchmarkSimnetDialClose(b *testing.B) { loop(b, newSimnetDialClose(b)) }

// vnReply is what a stateless responder answers a probe with: a Version
// Negotiation packet echoing the probe's connection IDs.
func vnReply(probe []byte) [][]byte {
	hdr, _, err := quicwire.ParseLongHeader(probe)
	if err != nil {
		return nil
	}
	return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0,
		[]quicwire.Version{quicwire.VersionDraft29, quicwire.VersionGoogleQ050})}
}

// zmapSweepTargets is the size of one newZmapSweep sweep.
const zmapSweepTargets = 256

// newZmapSweep returns one full stateless sweep — 256 targets, every
// one answering instantly with a Version Negotiation packet — through
// one shared socket over the in-memory network. Patching CIDs into a
// reused probe copy and deriving them with one AES block on either side
// keeps per-probe allocation O(1) regardless of sweep size.
func newZmapSweep(tb testing.TB) func() {
	n := simnet.New(simnet.Config{})
	tb.Cleanup(n.Close)
	n.SetSyntheticResponder(func(_ netip.AddrPort, payload []byte) [][]byte { return vnReply(payload) })
	pc, err := n.DialUDP()
	if err != nil {
		tb.Fatal(err)
	}
	s := &zmapquic.Scanner{Conn: pc, Cooldown: 20 * time.Millisecond}
	addrs := make([]netip.Addr, zmapSweepTargets)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{100, 65, byte(i >> 8), byte(i)})
	}
	ctx := context.Background()
	// Warm the template, pools, and responder before counting.
	if _, _, err := s.ScanAddrs(ctx, addrs[:4]); err != nil {
		tb.Fatal(err)
	}
	return func() {
		results, st, err := s.ScanAddrs(ctx, addrs)
		if err != nil {
			tb.Fatal(err)
		}
		if len(results) != zmapSweepTargets || st.ProbesSent != zmapSweepTargets {
			tb.Fatalf("sweep incomplete: %d results, %d probes", len(results), st.ProbesSent)
		}
	}
}

func BenchmarkZmapSweep(b *testing.B) { loop(b, newZmapSweep(b)) }

// newProbePath returns the two halves of one stateless probe: SendProbe
// to an address nobody answers from, and ValidateResponse on the answer
// of one that does.
func newProbePath(tb testing.TB) (send, validate func()) {
	silent, answering := netip.AddrFrom4([4]byte{100, 65, 0, 1}), netip.AddrFrom4([4]byte{100, 65, 0, 2})
	n := simnet.New(simnet.Config{})
	tb.Cleanup(n.Close)
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		if dst.Addr() != answering {
			return nil
		}
		return vnReply(payload)
	})
	pc, err := n.DialUDP()
	if err != nil {
		tb.Fatal(err)
	}
	s := &zmapquic.Scanner{Conn: pc}
	probe := func(addr netip.Addr) {
		if sent, err := s.SendProbe(addr); !sent || err != nil {
			tb.Fatalf("SendProbe(%v): sent=%v err=%v", addr, sent, err)
		}
	}
	probe(answering)
	answer := make([]byte, 2048)
	nn, _, err := pc.ReadFrom(answer)
	if err != nil {
		tb.Fatal(err)
	}
	return func() { probe(silent) }, func() {
		if _, ok := s.ValidateResponse(answering, answer[:nn]); !ok {
			tb.Fatal("the answer to our own probe does not validate")
		}
	}
}

// engineSweepProbes counts the probes of every BenchmarkEngineSweep
// iteration of this process, the single one `go test` runs ahead of a
// -benchtime Nx included: a CPU profile covers them all.
var engineSweepProbes uint64

// engineSweepSize is the number of probes in one newEngineSweep sweep.
const engineSweepSize = 1 << 20

// newEngineSweep returns the production sweep path as one closure: the
// campaign engine over 100.64.0.0/12, two shards and two workers
// through one Scanner.SendProbe onto simnet, one collector, a NullSink
// — the repository benchmark's sweep-vn without a universe behind it:
// one address in 4,096 answers, looked up as the universe looks up its
// deployments. A call sweeps the prefix once in the order seed gives.
func newEngineSweep(tb testing.TB) func(seed uint64) {
	n := simnet.New(simnet.Config{})
	tb.Cleanup(n.Close)
	prefixes := []netip.Prefix{netip.MustParsePrefix("100.64.0.0/12")}
	responders := make(map[netip.Addr]bool)
	for i := 0; i < engineSweepSize; i += 1 << 12 {
		responders[netip.AddrFrom4([4]byte{100, 64 + byte(i>>16), byte(i >> 8), 0})] = true
	}
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		if !responders[dst.Addr()] {
			return nil
		}
		return vnReply(payload)
	})
	pc, err := n.DialUDP()
	if err != nil {
		tb.Fatal(err)
	}
	zs := &zmapquic.Scanner{Conn: pc}
	return func(seed uint64) {
		sw := zmapquic.NewSweep(seed, prefixes)
		eng, err := campaignpkg.New(campaignpkg.Config{
			Sweep:   sw,
			Shards:  2,
			Workers: 2,
			Probe:   campaignpkg.ProbeWith(zs),
			Sink:    campaignpkg.NullSink{},
		})
		if err != nil {
			tb.Fatal(err)
		}
		hits := 0
		err = eng.Sweep(context.Background(), zs, []net.PacketConn{pc}, 20*time.Millisecond,
			func(zmapquic.Result) { hits++ })
		if err != nil {
			tb.Fatal(err)
		}
		if probes := eng.Progress().Probes; probes != engineSweepSize || hits != len(responders) {
			tb.Fatalf("swept %d of %d addresses, %d of %d responders answered", probes, engineSweepSize, hits, len(responders))
		}
	}
}

// BenchmarkEngineSweep is newEngineSweep under a profiler. It is a
// profile source, not a judge:
// scripts/cpu.sh (`make cpu-sweep`) runs it under -cpuprofile and
// divides the samples by "probes"; no gate and no tier-1 test reads
// its timings. "cpu-ns/probe" is the process's CPU time so far over its
// probes so far, what the profile's rows should add up to.
func BenchmarkEngineSweep(b *testing.B) {
	sweep := newEngineSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(uint64(i))
		engineSweepProbes += engineSweepSize
	}
	b.StopTimer()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	b.ReportMetric(float64(engineSweepProbes), "probes")
	b.ReportMetric(float64(cpu.Nanoseconds())/float64(engineSweepProbes), "cpu-ns/probe")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/engineSweepSize, "ns/probe")
}

// ---- telemetry overhead -------------------------------------------------

// BenchmarkTelemetryOverhead holds what the always-on metrics registry
// costs on the scanner's two hot paths, each run with the registry on
// and with its global kill switch flipped, which reduces every update
// to one atomic load. An iteration is one run each way.
//
// stateful is the VN scan of BenchmarkScanSocketChurn/shared-transport,
// held under 5 % ("overhead_pct"). sweep is newEngineSweep, where two
// workers update the same eight metrics for every probe, held under
// 25 % ("sweep_overhead_pct": 64 % while a Counter was one shared
// word, ≈ 10 % since it is cells). The 5 % bar cannot hold there: eight
// updates of ≈ 5 ns on a ≈ 280 ns probe are more than that by
// themselves. Contention needs two Ps, so scripts/check.sh runs sweep
// at -cpu 2 and stateful, whose median swings with two, at -cpu 1.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, arm := range []struct {
		name, metric string
		limit        float64
		op           func(testing.TB) func()
	}{
		{"stateful", "overhead_pct", 5, func(tb testing.TB) func() {
			scan, _ := newVNScan(tb)
			return scan
		}},
		{"sweep", "sweep_overhead_pct", 25, func(tb testing.TB) func() {
			sweep := newEngineSweep(tb)
			return func() { sweep(0) }
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			op := arm.op(b)
			with := func(enabled bool) func() {
				return func() {
					telemetry.SetEnabled(enabled)
					op()
				}
			}
			defer telemetry.SetEnabled(true)
			op() // warm sockets, route shards, batch pools and counter children
			overhead := medianOfPairs(b, with(true), with(false), func(on, off time.Duration) float64 {
				return 100 * (on.Seconds() - off.Seconds()) / off.Seconds()
			})
			b.ReportMetric(overhead, arm.metric)
			if b.N >= gateIterations && overhead > arm.limit {
				b.Errorf("median telemetry overhead %.2f %% over %d pairs, want <= %.0f %%", overhead, b.N, arm.limit)
			}
		})
	}
}
