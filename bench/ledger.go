package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"time"

	"quicscan/internal/altsvc"
	"quicscan/internal/campaign"
	"quicscan/internal/certgen"
	"quicscan/internal/core"
	"quicscan/internal/dnsclient"
	"quicscan/internal/dnswire"
	"quicscan/internal/h3"
	"quicscan/internal/internet"
	"quicscan/internal/netbatch"
	"quicscan/internal/quic"
	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
	"quicscan/internal/telemetry"
	"quicscan/internal/tlsscan"
	"quicscan/internal/transportparams"
	"quicscan/internal/zmapquic"
)

// ledger is the per-layer pass of a traced run: every layer measured
// from outside, on the started universe the workload ran on, by a
// timed loop around an exported call or a telemetry counter delta.
type ledger struct {
	f    *fixture
	tr   *tracer
	seed uint64
	out  map[string]summary
	op   int // op id for ledger.op spans
	// initial is a client Initial captured at the socket seam.
	initial []byte
	sink    any // keeps leaf-loop results alive
}

func (l *ledger) set(name string, v float64) {
	unit, ok := unitOf(perLayer, name)
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	l.out[name] = single(unit, v)
}

func (l *ledger) get(name string) float64 { return l.out[name].Value }

// nsPerCall times fn in batches sized by a pilot to about 6 ms and
// returns the median batch's ns per call.
func nsPerCall(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		if d >= 2*time.Millisecond || n >= 1<<22 {
			per := float64(d.Nanoseconds()) / float64(n)
			if n = int(6e6 / per); n < 1 {
				n = 1
			}
			break
		}
		n *= 4
	}
	samples := make([]float64, 5)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		samples[s] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// counters reads the process-global registry; sum adds up a counter
// and, for a vec, its labelled children.
type counters map[string]uint64

func readCounters() counters { return telemetry.Default().Snapshot().Counters }

func (c counters) sum(name string) uint64 {
	total := c[name]
	for k, v := range c {
		if strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

func delta(a, b counters, name string) float64 { return float64(b.sum(name) - a.sum(name)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// run measures every layer that needs the universe's servers; the leaf
// loops have already run on the idle universe (idleUniverse). The passes
// that leave server-side connection state behind come last.
func (l *ledger) run() error {
	before := readCounters()
	if err := l.netbatchAndSimnet(); err != nil {
		return fmt.Errorf("ledger netbatch/simnet: %w", err)
	}
	if err := l.sweepLayers(); err != nil {
		return fmt.Errorf("ledger sweep layers: %w", err)
	}
	if err := l.campaignLayers(); err != nil {
		return fmt.Errorf("ledger campaign layers: %w", err)
	}
	if err := l.discoveryLayers(); err != nil {
		return fmt.Errorf("ledger discovery layers: %w", err)
	}
	if err := l.tls13Floor(); err != nil {
		return fmt.Errorf("ledger tls13 floor: %w", err)
	}
	targets := l.f.responsiveNoRetry()
	if len(targets) == 0 {
		return fmt.Errorf("ledger: no responsive no-retry deployment")
	}
	if err := l.dialPasses(targets); err != nil {
		return fmt.Errorf("ledger dial passes: %w", err)
	}
	if err := l.corePasses(targets); err != nil {
		return fmt.Errorf("ledger core passes: %w", err)
	}
	l.wireOnCapturedInitial()
	after := readCounters()
	l.set("simnet.lost", delta(before, after, "simnet_lost_total"))
	l.set("netbatch.fallback_writes", delta(before, after, "netbatch_fallback_writes_total"))
	l.set("campaign.sink_drops", delta(before, after, "campaign_sink_drops_total"))
	l.set("quic.self_dial_ms", l.get("quic.dial_ms_p50")-l.get("tls13.full_ms"))
	l.set("core.self_ms", l.get("core.scan_target_ms_p50")-l.get("quic.dial_ms_p50")-
		l.get("h3.head_ms_p50")-l.get("quic.close_ms_p50"))
	return nil
}

// ---- leaf loops --------------------------------------------------------

func (l *ledger) leafLoops() {
	dcid := quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}
	l.set("quiccrypto.initial_keys_ns", nsPerCall(func() {
		ik, err := quiccrypto.NewInitialKeys(quicwire.Version1, dcid)
		if err != nil {
			panic(err)
		}
		l.sink = ik
	}))
	ik, _ := quiccrypto.NewInitialKeys(quicwire.Version1, dcid)
	payload := make([]byte, 1200-38) // 1,200 B on the wire after header and tag
	buf := make([]byte, 0, 1400)
	pn := uint64(0)
	l.set("quiccrypto.seal_open_1200_ns", nsPerCall(func() {
		pn++
		h := quicwire.Header{Type: quicwire.PacketInitial, Version: quicwire.Version1,
			DstID: dcid, PacketNumber: pn, PacketNumberLen: 4}
		pkt, pnOff := quicwire.AppendLongHeader(buf[:0], &h, len(payload)+quiccrypto.SealOverhead)
		pkt = append(pkt, payload...)
		sealed := ik.Client.SealPacket(pkt, pnOff, 4, pn)
		if _, _, _, err := ik.Client.OpenPacket(sealed, pnOff, int64(pn)-1); err != nil {
			panic(err)
		}
	}))

	versions := []quicwire.Version{quicwire.VersionDraft29, quicwire.VersionDraft28, quicwire.VersionDraft27}
	var vnHdr quicwire.Header
	vnBuf := make([]byte, 0, 64)
	l.set("quicwire.parse_vn_ns", nsPerCall(func() {
		vn := quicwire.AppendVersionNegotiation(vnBuf[:0], dcid, dcid, 0x5a, versions)
		if _, err := quicwire.ParseLongHeaderInto(&vnHdr, vn); err != nil {
			panic(err)
		}
	}))

	params := quic.DefaultClientParams()
	l.set("transportparams.marshal_unmarshal_ns", nsPerCall(func() {
		p, err := transportparams.Unmarshal(params.Marshal())
		if err != nil {
			panic(err)
		}
		l.sink = p
	}))

	fields := []h3.HeaderField{
		{Name: ":method", Value: "HEAD"}, {Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "w000001.cloudflare-sites.com"}, {Name: ":path", Value: "/"},
		{Name: "user-agent", Value: "qscanner/1.0"},
	}
	l.set("h3.qpack_roundtrip_ns", nsPerCall(func() {
		got, err := h3.DecodeHeaders(h3.EncodeHeaders(fields))
		if err != nil {
			panic(err)
		}
		l.sink = got
	}))

	zs := &zmapquic.Scanner{}
	addr := netip.MustParseAddr("203.0.113.7")
	l.set("zmapquic.build_probe_ns", nsPerCall(func() { l.sink = zs.BuildProbe(addr) }))
	probeHdr, _, _ := quicwire.ParseLongHeader(zs.BuildProbe(addr))
	resp := quicwire.AppendVersionNegotiation(nil, probeHdr.SrcID, probeHdr.DstID, 0, versions)
	l.set("zmapquic.validate_response_ns", nsPerCall(func() {
		if _, ok := zs.ValidateResponse(addr, resp); !ok {
			panic("zmapquic: own response failed validation")
		}
	}))
	sw := zmapquic.NewSweep(l.seed, l.f.u.V4Prefixes())
	pos := uint64(0)
	l.set("zmapquic.permute_ns_per_addr", nsPerCall(func() {
		a, _ := sw.AddrAtPosition(pos % sw.DomainSize())
		pos++
		l.sink = a
	}))

	msg := &dnswire.Message{
		Header:    dnswire.Header{ID: 7, Response: true},
		Questions: []dnswire.Question{{Name: "w000001.cloudflare-sites.com.", Type: dnswire.TypeHTTPS, Class: 1}},
		Answers: []dnswire.Record{{
			Name: "w000001.cloudflare-sites.com.", Type: dnswire.TypeHTTPS, Class: 1, TTL: 300,
			Priority: 1, Target: ".",
			Params: []dnswire.SvcParamValue{
				{Key: dnswire.SvcParamALPN, ALPN: []string{"h3-29", "h3-28", "h3-27"}},
				{Key: dnswire.SvcParamIPv4Hint, Hints: []netip.Addr{netip.MustParseAddr("11.0.0.7")}},
			},
		}},
	}
	l.set("dnswire.https_roundtrip_ns", nsPerCall(func() {
		wire, err := msg.Marshal()
		if err != nil {
			panic(err)
		}
		if _, err := dnswire.Parse(wire); err != nil {
			panic(err)
		}
	}))

	header := altsvc.Format([]altsvc.Service{
		{ALPN: "h3-27", Port: 443, MaxAge: 86400}, {ALPN: "h3-28", Port: 443, MaxAge: 86400},
		{ALPN: "h3-29", Port: 443, MaxAge: 86400},
	})
	l.set("altsvc.parse_ns", nsPerCall(func() {
		services, _ := altsvc.Parse(header)
		l.sink = services
	}))

	deps := l.f.u.Deployments
	i := 0
	l.set("asdb.lookup_ns", nsPerCall(func() {
		asn, _ := l.f.u.ASDB.Lookup(deps[i%len(deps)].Addr)
		i++
		l.sink = asn
	}))

	ctr := telemetry.NewRegistry().Counter("bench_counter_total")
	l.set("telemetry.counter_inc_ns", nsPerCall(ctr.Inc))
	l.set("telemetry.snapshot_ms", nsPerCall(func() { l.sink = telemetry.Default().Snapshot() })/1e6)
}

// wireOnCapturedInitial times the header parser and the frame codec on
// a real client Initial, captured by the seam wrapper during the dial
// pass and opened here with its own Initial keys.
func (l *ledger) wireOnCapturedInitial() {
	var hdr quicwire.Header
	l.set("quicwire.parse_initial_ns", nsPerCall(func() {
		if _, err := quicwire.ParseLongHeaderInto(&hdr, l.initial); err != nil {
			panic(err)
		}
	}))
	pkt := append([]byte(nil), l.initial...)
	pnOff, err := quicwire.ParseLongHeaderInto(&hdr, pkt)
	if err != nil {
		panic(err)
	}
	ik, err := quiccrypto.NewInitialKeys(hdr.Version, hdr.DstID)
	if err != nil {
		panic(err)
	}
	payload, _, _, err := ik.Client.OpenPacket(pkt, pnOff, -1)
	if err != nil {
		panic(fmt.Sprintf("bench: captured Initial does not open: %v", err))
	}
	scratch := make([]byte, 0, len(payload))
	l.set("quicwire.frames_roundtrip_ns", nsPerCall(func() {
		frames, err := quicwire.ParseFrames(payload)
		if err != nil {
			panic(err)
		}
		b := scratch[:0]
		for _, f := range frames {
			if _, pad := f.(*quicwire.PaddingFrame); !pad {
				b = f.Append(b)
			}
		}
		l.sink = b
	}))
}

// ---- netbatch and simnet -----------------------------------------------

const batchLen = 64

// batchPingPong times WriteBatch and ReadBatch apart: tx sends 64
// datagrams of 1,200 B to dst, then rx drains what came of them.
func batchPingPong(tx, rx net.PacketConn, dst []netip.AddrPort, replies bool, rounds int) (writeNs, readNs float64, err error) {
	wbc, _ := netbatch.Wrap(tx)
	rbc, _ := netbatch.Wrap(rx)
	out := make([]netbatch.Message, batchLen)
	in := make([]netbatch.Message, batchLen)
	zs := &zmapquic.Scanner{}
	for i := range out {
		// A forced-VN probe, so a synthetic responder answers it.
		out[i].Buf = zs.BuildProbe(dst[i%len(dst)].Addr())
		out[i].N = len(out[i].Buf)
		out[i].Addr = dst[i%len(dst)]
		in[i].Buf = make([]byte, 1500)
	}
	var wTotal, rTotal time.Duration
	var sent, received int
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		n, err := wbc.WriteBatch(out)
		wTotal += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		sent += n
		if !replies {
			continue
		}
		rx.SetReadDeadline(time.Now().Add(time.Second))
		for got := 0; got < n; {
			t1 := time.Now()
			k, err := rbc.ReadBatch(in)
			rTotal += time.Since(t1)
			if err != nil {
				return 0, 0, err
			}
			got += k
			received += k
		}
	}
	return ratio(float64(wTotal.Nanoseconds()), float64(sent)), ratio(float64(rTotal.Nanoseconds()), float64(received)), nil
}

func (l *ledger) netbatchAndSimnet() error {
	simNet := l.f.u.Net
	// Write path as sweep-vn sees it: batches to dark addresses, which
	// the network judges, finds no socket for and offers the synthetic
	// responder, who declines.
	dark := make([]netip.AddrPort, batchLen)
	a := darkPrefix.Addr()
	for i := range dark {
		a = a.Next()
		dark[i] = netip.AddrPortFrom(a, 443)
	}
	tx, err := simNet.DialUDP()
	if err != nil {
		return err
	}
	defer tx.Close()
	w, _, err := batchPingPong(tx, tx, dark, false, 400)
	if err != nil {
		return err
	}
	l.set("netbatch.simnet_write_ns_per_dgram", w)
	// Read path: every probe goes to a responder, so 64 replies queue
	// up for one ReadBatch.
	var responders []netip.AddrPort
	for addr := range l.f.vnResponders() {
		if responders = append(responders, netip.AddrPortFrom(addr, 443)); len(responders) == batchLen {
			break
		}
	}
	if len(responders) == 0 {
		return fmt.Errorf("universe has no version-negotiation responder")
	}
	_, r, err := batchPingPong(tx, tx, responders, true, 100)
	if err != nil {
		return err
	}
	l.set("netbatch.simnet_read_ns_per_dgram", r)

	// Kernel UDP on 127.0.0.1: informational, the only numbers here
	// that touch the kernel. A sandbox without loopback reports 0.
	l.set("netbatch.loopback_write_ns_per_dgram", 0)
	l.set("netbatch.loopback_read_ns_per_dgram", 0)
	if rx, err := net.ListenPacket("udp", "127.0.0.1:0"); err == nil {
		defer rx.Close()
		if ltx, err := net.ListenPacket("udp", "127.0.0.1:0"); err == nil {
			defer ltx.Close()
			dst := []netip.AddrPort{rx.LocalAddr().(*net.UDPAddr).AddrPort()}
			// The reader is rx here, so every written datagram is its own reply.
			if w, r, err := batchPingPong(ltx, rx, dst, true, 100); err == nil {
				l.set("netbatch.loopback_write_ns_per_dgram", w)
				l.set("netbatch.loopback_read_ns_per_dgram", r)
			}
		}
	}

	// Synthetic responder round trip, one datagram at a time.
	probe := (&zmapquic.Scanner{}).BuildProbe(responders[0].Addr())
	to := net.UDPAddrFromAddrPort(responders[0])
	rbuf := make([]byte, 1500)
	tx.SetReadDeadline(time.Time{})
	l.set("simnet.synthetic_ns_per_dgram", nsPerCall(func() {
		tx.WriteTo(probe, to)
		if _, _, err := tx.ReadFrom(rbuf); err != nil {
			panic(err)
		}
	}))

	// Socket-to-socket echo over the datagram plane.
	echoAt := netip.MustParseAddrPort("198.51.100.9:7")
	srv, err := simNet.ListenUDP(echoAt)
	if err != nil {
		return err
	}
	go func() {
		b := make([]byte, 1500)
		for {
			n, from, err := srv.ReadFrom(b)
			if err != nil {
				return
			}
			srv.WriteTo(b[:n], from)
		}
	}()
	echoTo := net.UDPAddrFromAddrPort(echoAt)
	l.set("simnet.udp_rtt_ns", nsPerCall(func() {
		tx.WriteTo(probe, echoTo)
		if _, _, err := tx.ReadFrom(rbuf); err != nil {
			panic(err)
		}
	}))
	srv.Close()

	// The stream plane, as tlsscan uses it.
	ln, err := simNet.ListenStream(echoAt)
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
		c.Close()
	}()
	c, err := simNet.DialStream(echoAt)
	if err != nil {
		return err
	}
	defer c.Close()
	one := make([]byte, 64)
	l.set("simnet.stream_rtt_ns", nsPerCall(func() {
		c.Write(one)
		if _, err := io.ReadFull(c, one); err != nil {
			panic(err)
		}
	}))
	return nil
}

// ---- zmapquic, campaign ------------------------------------------------

func (l *ledger) sweepLayers() error {
	// The sweep-vn path at a fraction of its size: allocated prefixes
	// plus a dark /13, two workers flat-combining into one socket.
	sub := netip.PrefixFrom(darkPrefix.Addr(), 13)
	s, err := openSweep(l.f, config{seed: l.seed, dark: sub})
	if err != nil {
		return err
	}
	defer s.close()
	ss := s.(*sweepSession)
	c0 := readCounters()
	if _, failed := ss.rep(0, nil); failed != 0 {
		return fmt.Errorf("%d wrong verdicts: %v", failed, ss.bad)
	}
	c1 := readCounters()
	l.set("zmapquic.probes_per_flush", ratio(delta(c0, c1, "zmapquic_batch_probes_total"), delta(c0, c1, "zmapquic_batch_flushes_total")))
	l.set("zmapquic.hit_share", ratio(delta(c0, c1, "zmapquic_responses_total"), delta(c0, c1, "zmapquic_probes_sent_total")))
	l.set("zmapquic.invalid_responses", delta(c0, c1, "zmapquic_invalid_responses_total"))

	// The receive-bound use sweep-vn barely touches: every probe is
	// answered.
	var dense []netip.Addr
	for len(dense) < 40000 {
		for a := range ss.truth {
			dense = append(dense, a)
		}
	}
	conn, err := l.f.dialUDP()
	if err != nil {
		return err
	}
	defer conn.Close()
	cooldown := 20 * time.Millisecond
	zs := &zmapquic.Scanner{Conn: conn, Cooldown: cooldown}
	t0 := time.Now()
	results, stats, err := zs.ScanAddrs(context.Background(), dense)
	wall := time.Since(t0) - cooldown
	if err != nil {
		return err
	}
	if len(results) != len(ss.truth) {
		return fmt.Errorf("dense scan found %d of %d responders", len(results), len(ss.truth))
	}
	l.set("zmapquic.dense_probes_per_s", float64(stats.ProbesSent)/wall.Seconds())

	// One probe re-assembled from the layers' exported calls.
	bc, _ := netbatch.Wrap(conn)
	in := []netbatch.Message{{Buf: make([]byte, 1500)}}
	n := 0
	for a := range ss.truth {
		if n++; n > 64 {
			break
		}
		l.op++
		root := l.tr.start("ledger.op", 0, l.op)
		id := l.tr.start("zmapquic.Scanner.BuildProbe", root, l.op)
		probe := zs.BuildProbe(a)
		l.tr.end(id)
		id = l.tr.start("netbatch.BatchConn.WriteBatch", root, l.op)
		_, werr := bc.WriteBatch([]netbatch.Message{{Buf: probe, N: len(probe), Addr: netip.AddrPortFrom(a, 443)}})
		l.tr.end(id)
		if werr != nil {
			return werr
		}
		id = l.tr.start("netbatch.BatchConn.ReadBatch", root, l.op)
		conn.SetReadDeadline(time.Now().Add(time.Second))
		_, rerr := bc.ReadBatch(in)
		l.tr.end(id)
		if rerr != nil {
			return rerr
		}
		id = l.tr.start("zmapquic.Scanner.ValidateResponse", root, l.op)
		_, ok := zs.ValidateResponse(a, in[0].Buf[:in[0].N])
		l.tr.end(id)
		l.tr.end(root)
		if !ok {
			return fmt.Errorf("response from %v failed validation", a)
		}
	}
	return nil
}

func (l *ledger) campaignLayers() error {
	sw := zmapquic.NewSweep(l.seed, []netip.Prefix{netip.PrefixFrom(darkPrefix.Addr(), 14)})
	eng, err := campaign.New(campaign.Config{
		Sweep: sw, Shards: clients, Workers: clients, Sink: campaign.NullSink{},
		Probe: func(context.Context, netip.Addr) error { return nil },
	})
	if err != nil {
		return err
	}
	id := l.tr.start("campaign.Engine.Run(no-op probe)", 0, 0)
	t0 := time.Now()
	err = eng.Run(context.Background())
	wall := time.Since(t0)
	l.tr.end(id)
	if err != nil {
		return err
	}
	l.set("campaign.ns_per_addr", float64(wall.Nanoseconds())/float64(sw.Total()))

	const records = 200000
	ndjson := campaign.NewNDJSONSink(io.Discard, 0, false)
	rec := campaign.Record{Type: campaign.RecordHit, Shard: -1, Addr: "11.0.0.7", Versions: []string{"draft-29", "draft-28", "draft-27"}}
	t0 = time.Now()
	for i := 0; i < records; i++ {
		if err := ndjson.Write(rec); err != nil {
			return err
		}
	}
	if err := ndjson.Close(); err != nil {
		return err
	}
	l.set("campaign.sink_records_per_s", records/time.Since(t0).Seconds())

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckpt := &campaign.Checkpoint{
		Version: 1, Campaign: eng.ID(), Seed: l.seed, Shards: clients, Total: sw.Total(),
		Prefixes: []string{sw.Prefixes()[0].String()},
		Cursors:  []campaign.ShardCursor{{Shard: 0, Cursor: 1 << 17}, {Shard: 1, Cursor: 1 << 17}},
	}
	var samples []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		if err := campaign.WriteCheckpoint(filepath.Join(dir, "state.json"), ckpt); err != nil {
			return err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	l.set("campaign.checkpoint_write_ms", median(samples))
	return nil
}

// ---- DNS, TLS-over-TCP -------------------------------------------------

func (l *ledger) discoveryLayers() error {
	u := l.f.u
	ctx := context.Background()
	cl := &dnsclient.Client{
		Server:     net.UDPAddrFromAddrPort(internet.DNSAddr),
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		Timeout:    2 * time.Second,
	}
	names := u.SourceLists["alexa"]
	c0 := readCounters()
	t0 := time.Now()
	results := cl.ResolveBatch(ctx, names, dnswire.TypeHTTPS, clients)
	wall := time.Since(t0)
	c1 := readCounters()
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("resolving %s: %w", r.Name, r.Err)
		}
	}
	queries := delta(c0, c1, "dns_queries_total")
	l.set("dnsclient.queries_per_s", ratio(queries, wall.Seconds()))
	l.set("dnsclient.retries_per_kquery", 1000*ratio(delta(c0, c1, "dns_query_retries_total"), queries))

	ts := &tlsscan.Scanner{
		Dial: func(_ context.Context, addr netip.AddrPort) (net.Conn, error) {
			return u.Net.DialStream(addr)
		},
		RootCAs: u.RootCAs(),
		Timeout: 2 * time.Second,
		Workers: clients,
	}
	var targets []tlsscan.Target
	for _, d := range u.Deployments {
		if len(d.Domains) > 0 {
			if targets = append(targets, tlsscan.Target{Addr: d.Addr, SNI: d.Domains[0]}); len(targets) == 300 {
				break
			}
		}
	}
	t0 = time.Now()
	scanned := ts.Scan(ctx, targets)
	wall = time.Since(t0)
	for i := range scanned {
		if !scanned[i].OK {
			return fmt.Errorf("tlsscan %v: %s", scanned[i].Target.Addr, scanned[i].Error)
		}
	}
	l.set("tlsscan.targets_per_s", float64(len(targets))/wall.Seconds())
	var each []float64
	for i := 0; i < len(targets) && i < 100; i++ {
		id := l.tr.start("tlsscan.Scanner.ScanTarget", 0, 0)
		t0 := time.Now()
		ts.ScanTarget(ctx, targets[i])
		each = append(each, ms(time.Since(t0)))
		l.tr.end(id)
	}
	l.set("tlsscan.target_ms_p50", median(each))
	return nil
}

// ---- crypto/tls floor --------------------------------------------------

// tls13Floor times bare tls.QUICClient <-> tls.QUICServer handshakes in
// memory, with a chain issued the way the universe issues its own
// (certgen root, ECDSA leaf with wildcard SANs). Nothing of ours is in
// it: it is the floor under quic.dial_*.
func (l *ledger) tls13Floor() error {
	ca, err := certgen.NewCA("bench floor CA")
	if err != nil {
		return err
	}
	leaf, err := ca.Issue(certgen.LeafOptions{
		CommonName: "floor.sim",
		DNSNames:   []string{"floor.sim", "*.floor-sites.com", "floor-sites.com", "*.floor-tail.net"},
	})
	if err != nil {
		return err
	}
	pool := x509.NewCertPool()
	ca.AddToPool(pool)
	server := &tls.Config{Certificates: []tls.Certificate{leaf}, NextProtos: []string{"h3", "h3-29"}, MinVersion: tls.VersionTLS13}
	client := func(cache tls.ClientSessionCache) *tls.Config {
		cfg := l.clientConfig("w000001.floor-sites.com", nil).TLS
		cfg.RootCAs = pool
		cfg.ClientSessionCache = cache
		return cfg
	}
	tp := quic.DefaultClientParams()
	params := tp.Marshal()

	var full, resumed []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		did, err := quicTLSHandshake(client(nil), server, params)
		if err != nil {
			return err
		}
		if did {
			return fmt.Errorf("handshake without a session cache resumed")
		}
		full = append(full, ms(time.Since(t0)))
	}
	cache := tls.NewLRUClientSessionCache(4)
	for i := 0; i < 41; i++ {
		t0 := time.Now()
		did, err := quicTLSHandshake(client(cache), server, params)
		if err != nil {
			return err
		}
		if i == 0 {
			continue // the visit that earns the ticket
		}
		if !did {
			return fmt.Errorf("handshake %d with a cached ticket did not resume", i)
		}
		resumed = append(resumed, ms(time.Since(t0)))
	}
	l.set("tls13.full_ms", median(full))
	l.set("tls13.resumed_ms", median(resumed))
	return nil
}

// quicTLSHandshake pumps one client and one server QUIC TLS state
// machine against each other until both are done and the server's
// session ticket has reached the client.
func quicTLSHandshake(clientCfg, serverCfg *tls.Config, params []byte) (resumed bool, err error) {
	ctx := context.Background()
	cli := tls.QUICClient(&tls.QUICConfig{TLSConfig: clientCfg})
	srv := tls.QUICServer(&tls.QUICConfig{TLSConfig: serverCfg})
	defer cli.Close()
	defer srv.Close()
	cli.SetTransportParameters(params)
	srv.SetTransportParameters(params)
	if err := cli.Start(ctx); err != nil {
		return false, err
	}
	if err := srv.Start(ctx); err != nil {
		return false, err
	}
	done := map[*tls.QUICConn]bool{}
	// pump forwards everything from has written to the other side.
	pump := func(from, to *tls.QUICConn) (moved bool, err error) {
		for {
			switch e := from.NextEvent(); e.Kind {
			case tls.QUICNoEvent:
				return moved, nil
			case tls.QUICWriteData:
				moved = true
				if err := to.HandleData(e.Level, e.Data); err != nil {
					return moved, err
				}
			case tls.QUICHandshakeDone:
				done[from] = true
			}
		}
	}
	ticketSent := false
	for {
		a, err := pump(cli, srv)
		if err != nil {
			return false, err
		}
		b, err := pump(srv, cli)
		if err != nil {
			return false, err
		}
		if done[srv] && !ticketSent {
			ticketSent = true
			if err := srv.SendSessionTicket(tls.QUICSessionTicketOptions{}); err != nil {
				return false, err
			}
			continue
		}
		if !a && !b {
			break
		}
	}
	if !done[cli] || !done[srv] {
		return false, fmt.Errorf("in-memory TLS handshake stalled")
	}
	return cli.ConnectionState().DidResume, nil
}

// ---- quic, h3 ----------------------------------------------------------

var scannerALPN = []string{"h3", "h3-34", "h3-32", "h3-29"}

// clientConfig is the quic.Config core.Scanner builds per target.
func (l *ledger) clientConfig(sni string, cache *quic.SessionCache) *quic.Config {
	return &quic.Config{
		TLS: &tls.Config{
			ServerName:         sni,
			NextProtos:         scannerALPN,
			RootCAs:            l.f.u.RootCAs(),
			InsecureSkipVerify: true,
			CurvePreferences:   []tls.CurveID{tls.X25519},
			MinVersion:         tls.VersionTLS13,
		},
		HandshakeTimeout: 2 * time.Second,
		SessionCache:     cache,
	}
}

func udpAddr(t core.Target) net.Addr {
	return net.UDPAddrFromAddrPort(netip.AddrPortFrom(t.Addr, 443))
}

func head(ctx context.Context, conn *quic.Conn, authority string) error {
	hc, err := h3.NewClientConn(conn)
	if err != nil {
		return err
	}
	resp, err := hc.RoundTrip(ctx, "HEAD", authority, "/", nil)
	if err != nil {
		return err
	}
	if resp.Status != "200" {
		return fmt.Errorf("HEAD status %s", resp.Status)
	}
	return nil
}

// dialPasses dials the fixture's listeners one at a time through one
// counted socket: cold (with the op re-assembled as Dial -> HEAD ->
// Close under a ledger.op span), Retry, then resumed and 0-RTT.
func (l *ledger) dialPasses(targets []core.Target) error {
	ctx := context.Background()
	counts := &sockCounts{}
	pc, err := l.f.dialUDP()
	if err != nil {
		return err
	}
	tr, err := quic.NewTransport(wrapConn(pc, counts))
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			tr.Close()
		}
	}()

	// Cold: every target twice.
	var dialMs, headMs, closeMs []float64
	heap0 := heapLiveMB()
	c0 := readCounters()
	for round := 0; round < 2; round++ {
		for _, t := range targets {
			l.op++
			root := l.tr.start("ledger.op", 0, l.op)
			id := l.tr.start("quic.Transport.Dial", root, l.op)
			t0 := time.Now()
			conn, err := tr.Dial(ctx, udpAddr(t), l.clientConfig(t.SNI, nil))
			dialMs = append(dialMs, ms(time.Since(t0)))
			l.tr.end(id)
			if err != nil {
				return fmt.Errorf("dial %v: %w", t.Addr, err)
			}
			id = l.tr.start("h3.ClientConn.RoundTrip", root, l.op)
			t0 = time.Now()
			err = head(ctx, conn, t.SNI)
			headMs = append(headMs, ms(time.Since(t0)))
			l.tr.end(id)
			if err != nil {
				return fmt.Errorf("HEAD %v: %w", t.Addr, err)
			}
			id = l.tr.start("quic.Conn.Close", root, l.op)
			t0 = time.Now()
			conn.Close()
			closeMs = append(closeMs, ms(time.Since(t0)))
			l.tr.end(id)
			l.tr.end(root)
		}
	}
	c1 := readCounters()
	ops := float64(len(dialMs))
	l.set("quic.dial_ms_p50", median(dialMs))
	l.set("quic.dial_ms_p99", percentile(dialMs, 99))
	l.set("h3.head_ms_p50", median(headMs))
	l.set("quic.close_ms_p50", median(closeMs))
	l.set("quic.datagrams_per_op", (delta(c0, c1, "quic_datagrams_out_total")+delta(c0, c1, "quic_datagrams_in_total"))/ops)
	l.set("quic.bytes_per_op", (delta(c0, c1, "quic_bytes_out_total")+delta(c0, c1, "quic_bytes_in_total"))/ops)
	l.set("quic.retransmits_per_kop", 1000*delta(c0, c1, "quic_retransmits_total")/ops)
	l.set("quic.pto_fired_per_kop", 1000*delta(c0, c1, "quic_pto_fired_total")/ops)
	l.set("quic.routing_misses", delta(c0, c1, "quic_routing_misses_total"))
	l.set("quic.dropped_datagrams", delta(c0, c1, "quic_dropped_datagrams_total"))
	counts.firstMu.Lock()
	l.initial = counts.firstWrite
	counts.firstMu.Unlock()

	// Retry: a cold dial that pays the extra round trip.
	var retryMs []float64
	for i, t := range l.f.retryTargets() {
		if i == 60 {
			break
		}
		t0 := time.Now()
		conn, err := tr.Dial(ctx, udpAddr(t), l.clientConfig(t.SNI, nil))
		if err != nil {
			return fmt.Errorf("retry dial %v: %w", t.Addr, err)
		}
		retryMs = append(retryMs, ms(time.Since(t0)))
		conn.Close()
	}
	l.set("quic.dial_retry_ms_p50", median(retryMs))

	// Resumed: prime a session cache, waiting for each ticket so the
	// shares below repeat exactly, then revisit with DialEarly.
	cache := quic.NewSessionCache(4 * len(targets))
	for _, t := range targets {
		conn, err := tr.Dial(ctx, udpAddr(t), l.clientConfig(t.SNI, cache))
		if err != nil {
			return fmt.Errorf("priming dial %v: %w", t.Addr, err)
		}
		select {
		case <-conn.SessionTicketReceived():
		case <-time.After(50 * time.Millisecond): // no-ticket deployments never send one
		}
		conn.Close()
	}
	var resumedMs, zeroRTTMs []float64
	resumed, accepted := 0, 0
	c0 = readCounters()
	for _, t := range targets {
		t0 := time.Now()
		conn, err := tr.DialEarly(ctx, udpAddr(t), l.clientConfig(t.SNI, cache))
		if err != nil {
			return fmt.Errorf("resumed dial %v: %w", t.Addr, err)
		}
		early := conn.EarlyDataOffered()
		if early {
			// As core does: the HEAD rides in the 0-RTT flight.
			if err := head(ctx, conn, t.SNI); err != nil {
				return fmt.Errorf("early HEAD %v: %w", t.Addr, err)
			}
		}
		if err := conn.HandshakeComplete(ctx); err != nil {
			return fmt.Errorf("resumed handshake %v: %w", t.Addr, err)
		}
		d := ms(time.Since(t0))
		switch {
		case conn.EarlyDataAccepted():
			accepted++
			resumed++
			zeroRTTMs = append(zeroRTTMs, d)
		case conn.Resumed():
			resumed++
			resumedMs = append(resumedMs, d)
		}
		conn.Close()
	}
	c1 = readCounters()
	l.set("quic.dial_resumed_ms_p50", median(resumedMs))
	l.set("quic.dial_0rtt_ms_p50", median(zeroRTTMs))
	l.set("quic.resumed_share", float64(resumed)/float64(len(targets)))
	l.set("quic.zero_rtt_accepted_share", float64(accepted)/float64(len(targets)))
	l.set("quic.token_replays_per_kop", 1000*delta(c0, c1, "quic_resumption_token_replays_total")/float64(len(targets)))

	closed = true
	tr.Close()
	// What is still live now is what the servers keep per finished
	// connection: the client side is closed and collected.
	conns := ops + float64(len(retryMs)) + 2*float64(len(targets))
	l.set("quic.heap_kb_per_conn", 1024*(heapLiveMB()-heap0)/conns)
	return nil
}

// corePasses runs Scanner.ScanTarget one target at a time through
// counted sockets: cold, then with a primed session cache.
func (l *ledger) corePasses(targets []core.Target) error {
	ctx := context.Background()
	counts := &sockCounts{}
	sc := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) {
			pc, err := l.f.dialUDP()
			if err != nil {
				return nil, err
			}
			return wrapConn(pc, counts), nil
		},
		RootCAs: l.f.u.RootCAs(),
		Timeout: 2 * time.Second,
	}
	var targetMs, hsMs []float64
	attempts := 0
	c0 := readCounters()
	for round := 0; round < 2; round++ {
		for _, t := range targets {
			l.op++
			id := l.tr.start("core.Scanner.ScanTarget(sequential)", 0, l.op)
			t0 := time.Now()
			r := sc.ScanTarget(ctx, t)
			targetMs = append(targetMs, ms(time.Since(t0)))
			l.tr.end(id)
			if !l.f.checkScan(&r) {
				return fmt.Errorf("scan %v: %s %s", t.Addr, r.Outcome, r.Error)
			}
			hsMs = append(hsMs, r.HandshakeMillis)
			attempts += r.Attempts
		}
	}
	c1 := readCounters()
	sc.Close()
	ops := float64(len(targetMs))
	l.set("core.scan_target_ms_p50", median(targetMs))
	l.set("core.scan_target_ms_p99", percentile(targetMs, 99))
	l.set("core.handshake_ms_p50", median(hsMs))
	l.set("core.handshake_ms_p99", percentile(hsMs, 99))
	l.set("core.attempts_per_op", float64(attempts)/ops)
	hits, misses := delta(c0, c1, "core_certcache_hits_total"), delta(c0, c1, "core_certcache_misses_total")
	l.set("core.certcache_hit_ratio", ratio(hits, hits+misses))
	l.set("simnet.delivered_per_op", delta(c0, c1, "simnet_delivered_total")/ops)
	l.set("sock.writes_per_op", float64(counts.writes.Load())/ops)
	l.set("sock.read_wait_share", ratio(float64(counts.readWaitNs.Load()), float64(counts.closedSocketLifetimes.Load())))

	// The rescan op: same call, primed cache.
	rs := &core.Scanner{
		DialPacket:   l.f.dialUDP,
		RootCAs:      l.f.u.RootCAs(),
		Timeout:      2 * time.Second,
		SessionCache: quic.NewSessionCache(4 * len(targets)),
	}
	defer rs.Close()
	var rescanMs []float64
	for round := 0; round < 3; round++ {
		for _, t := range targets {
			t0 := time.Now()
			r := rs.ScanTarget(ctx, t)
			if !l.f.checkScan(&r) {
				return fmt.Errorf("rescan %v: %s %s", t.Addr, r.Outcome, r.Error)
			}
			if round > 0 {
				rescanMs = append(rescanMs, ms(time.Since(t0)))
			}
		}
	}
	l.set("core.rescan_target_ms_p50", median(rescanMs))
	return nil
}
