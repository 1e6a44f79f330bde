package quicscan

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	campaignpkg "quicscan/internal/campaign"
	"quicscan/internal/core"
	"quicscan/internal/internet"
	"quicscan/internal/migration"
	"quicscan/internal/probe"
	"quicscan/internal/quic"
	"quicscan/internal/resumption"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
	"quicscan/internal/zmapquic"
)

// TestTelemetryEndToEnd is the acceptance check for the telemetry
// subsystem: a discovery pass plus a stateful scan against the
// simulated Internet must leave the live HTTP exporter serving
// non-empty Prometheus text covering the quic, core, zmapquic and
// simnet metric families, and the qlog directory must hold parseable
// JSON-seq traces in which the impaired handshake shows its
// PTO/retransmit repair.
func TestTelemetryEndToEnd(t *testing.T) {
	u := internet.Build(internet.Spec{Seed: 7, Scale: 16384, ASScale: 64, DomainScale: 65536, Week: 18})
	if err := u.Start(internet.StartOptions{Stateful: true}); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()

	// Stateless discovery: probe a handful of ZMap-visible addresses.
	var probeAddrs []netip.Addr
	var scanTargets []core.Target
	for _, d := range u.Deployments {
		if d.ZMapVisible && d.Addr.Is4() && len(probeAddrs) < 8 {
			probeAddrs = append(probeAddrs, d.Addr)
		}
		if d.Behavior == internet.BehaviorActive && d.Addr.Is4() && len(d.Domains) > 0 && len(scanTargets) < 3 {
			scanTargets = append(scanTargets, core.Target{Addr: d.Addr, SNI: d.Domains[0], Source: "zmap"})
		}
	}
	if len(probeAddrs) == 0 || len(scanTargets) < 2 {
		t.Fatalf("universe too small: %d probe addrs, %d scan targets", len(probeAddrs), len(scanTargets))
	}

	pc, err := u.Net.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	zs := &zmapquic.Scanner{Conn: pc, Cooldown: 300 * time.Millisecond}
	zres, _, err := zs.ScanAddrs(context.Background(), probeAddrs)
	pc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(zres) == 0 {
		t.Fatal("discovery found nothing")
	}

	// Campaign layer: a small sharded sweep with checkpointing and an
	// NDJSON sink, so the campaign_* family reaches the exporter too.
	ckpt := t.TempDir() + "/campaign.json"
	cpc, err := u.Net.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	czs := &zmapquic.Scanner{Conn: cpc}
	sink := campaignpkg.NewNDJSONSink(io.Discard, 0, false)
	eng, err := campaignpkg.New(campaignpkg.Config{
		Sweep:  zmapquic.NewSweep(7, []netip.Prefix{netip.PrefixFrom(probeAddrs[0], 28).Masked()}),
		Shards: 4,
		Rate:   100000,
		Probe: func(_ context.Context, addr netip.Addr) error {
			_, perr := czs.SendProbe(addr)
			return perr
		},
		Sink:            sink,
		Journal:         true,
		CheckpointPath:  ckpt,
		CheckpointEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	cpc.Close()
	if p := eng.Progress(); p.ShardsDone != 4 || p.Probes != 16 {
		t.Fatalf("campaign progress %+v, want 4 shards done and 16 probes", p)
	}

	// Stateful scan with tracing; one target sits behind a link that
	// is fully lossy until it heals mid-handshake.
	impaired := scanTargets[len(scanTargets)-1]
	prefix := netip.PrefixFrom(impaired.Addr, 32)
	u.Net.SetPrefixProfile(prefix, simnet.Profile{Loss: 1})
	heal := time.AfterFunc(120*time.Millisecond, func() {
		u.Net.SetPrefixProfile(prefix, simnet.Profile{})
	})
	defer heal.Stop()

	dir := t.TempDir()
	tracer, err := telemetry.NewTracer(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:    u.RootCAs(),
		Timeout:    3 * time.Second,
		PTO:        30 * time.Millisecond,
		SkipHTTP:   true,
		Tracer:     tracer,
	}
	defer sc.Close()
	results := sc.Scan(context.Background(), scanTargets)
	sum := core.Summarize(results)
	if sum.Success != len(scanTargets) {
		t.Fatalf("scan: %s", sum)
	}

	// Traces: all parseable, and the impaired connection's trace shows
	// the repair.
	files, err := telemetry.TraceFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(scanTargets) {
		t.Fatalf("trace files = %d, want %d", len(files), len(scanTargets))
	}
	repaired := false
	for _, f := range files {
		events, err := telemetry.ParseTraceFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		names := telemetry.EventNames(events)
		if names[0] != "trace_start" || names[len(names)-1] != "connection_closed" {
			t.Errorf("%s: unexpected envelope %v", f, names)
		}
		sawPTO, sawRetransmit, doneIdx, retransmitIdx := false, false, -1, -1
		for i, e := range events {
			switch e.Name {
			case "pto_fired":
				sawPTO = true
			case "retransmit":
				sawRetransmit = true
				retransmitIdx = i
			case "handshake_state":
				if e.Data["state"] == "done" {
					doneIdx = i
				}
			}
		}
		if sawPTO && sawRetransmit && retransmitIdx < doneIdx {
			repaired = true
		}
	}
	if !repaired {
		t.Error("no trace shows the PTO/retransmit repair of the impaired handshake")
	}

	// Migration prober: classify one migration-friendly deployment so
	// the migration_* and quic_path_* families reach the exporter with
	// real samples (rebind, server path validation, promotion).
	var migTarget probe.Target
	migFound := false
	for _, d := range u.Deployments {
		if d.Behavior == internet.BehaviorActive && d.Addr.Is4() && len(d.Domains) > 0 &&
			d.Profile.Quirks.Migration == quic.MigrationSupported {
			migTarget = probe.Target{Addr: netip.AddrPortFrom(d.Addr, 443), SNI: d.Domains[0]}
			migFound = true
			break
		}
	}
	if !migFound {
		t.Fatal("universe has no migration-friendly active deployment")
	}
	mp := &migration.Prober{
		Dialer: probe.Dialer{
			DialPacket:       func() (net.PacketConn, error) { return u.Net.DialUDP() },
			HandshakeTimeout: 4 * time.Second,
		},
		MigrateWait: 4 * time.Second,
	}
	if mres := mp.Probe(context.Background(), migTarget); mres.Verdict != migration.VerdictSupported {
		t.Fatalf("migration probe verdict = %q (err %q), want supported", mres.Verdict, mres.Err)
	}

	// Resumption prober: classify one 0-RTT-capable deployment (the
	// only active profile with the zero-value quirk also performs
	// Retry, so the rescan exercises NEW_TOKEN replay too) and rescan
	// it through a cache-sharing core scanner, so the resumption_*,
	// quic_resumption_*, quic_zero_rtt_* and core_certcache_* families
	// reach the exporter with real samples.
	var resTarget probe.Target
	var resCore core.Target
	resFound := false
	for _, d := range u.Deployments {
		if d.Behavior == internet.BehaviorActive && d.Addr.Is4() && len(d.Domains) > 0 &&
			d.Profile.Quirks.Resumption == quic.Resumption0RTT {
			resTarget = probe.Target{Addr: netip.AddrPortFrom(d.Addr, 443), SNI: d.Domains[0]}
			resCore = core.Target{Addr: d.Addr, SNI: d.Domains[0], Source: "zmap"}
			resFound = true
			break
		}
	}
	if !resFound {
		t.Fatal("universe has no 0-RTT-capable active deployment")
	}
	rp := &resumption.Prober{
		Dialer:     mp.Dialer,
		TicketWait: 4 * time.Second,
	}
	if rres := rp.Probe(context.Background(), resTarget); rres.Verdict != resumption.Verdict0RTT {
		t.Fatalf("resumption probe verdict = %q (err %q), want 0rtt", rres.Verdict, rres.Err)
	}
	rsc := &core.Scanner{
		DialPacket:   func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:      u.RootCAs(),
		Timeout:      3 * time.Second,
		SessionCache: quic.NewSessionCache(0),
	}
	defer rsc.Close()
	for pass := 0; pass < 2; pass++ {
		rres := rsc.Scan(context.Background(), []core.Target{resCore})
		if rres[0].Outcome != core.OutcomeSuccess {
			t.Fatalf("rescan pass %d: %s (%s)", pass, rres[0].Outcome, rres[0].Error)
		}
		if pass == 1 && !rres[0].Resumed {
			t.Error("second core-scanner pass did not resume")
		}
	}

	// Live exporter: Prometheus text must be non-empty and cover all
	// four producing families with actual samples.
	srv, addr, err := telemetry.Default().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if resp.StatusCode != 200 || len(text) == 0 {
		t.Fatalf("GET /metrics: status %d, %d bytes", resp.StatusCode, len(text))
	}
	for _, series := range []string{
		"quic_dials_total ",
		"core_scan_outcomes_total{outcome=\"success\"} ",
		"zmapquic_probes_sent_total ",
		"simnet_delivered_total ",
		"campaign_probes_total ",
		"campaign_shards_completed_total ",
		"campaign_checkpoint_writes_total ",
		"campaign_sink_records_total ",
		"migration_targets_total ",
		"migration_rebinds_total ",
		"migration_verdicts_total{verdict=\"supported\"} ",
		"quic_path_challenges_sent_total ",
		"quic_path_challenges_received_total ",
		"quic_path_validations_total ",
		"quic_migrations_total ",
		"resumption_targets_total ",
		"resumption_tickets_total ",
		"resumption_verdicts_total{verdict=\"0rtt\"} ",
		"resumption_token_reuse_total ",
		"quic_resumption_tickets_stored_total ",
		"quic_resumption_tickets_issued_total ",
		"quic_resumption_resumed_total ",
		"quic_resumption_new_tokens_total ",
		"quic_resumption_token_replays_total ",
		"quic_zero_rtt_offered_total ",
		"quic_zero_rtt_accepted_total ",
		"core_certcache_hits_total ",
		"core_certcache_misses_total ",
	} {
		idx := strings.Index(text, series)
		if idx < 0 {
			t.Errorf("/metrics lacks series %q", series)
			continue
		}
		rest := text[idx+len(series):]
		if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
			rest = rest[:nl]
		}
		if rest == "0" {
			t.Errorf("series %q is zero after the scan", series)
		}
	}
	// Failure-path counters exist (registered at package init) even
	// when this healthy run never increments them.
	for _, series := range []string{
		"quic_path_validation_failures_total",
		"quic_route_addr_miss_total",
		"migration_tp_mismatch_total",
		"quic_zero_rtt_rejected_total",
		"quic_resumption_tp_downgrade_total",
		// Tombstones a route table's cap evicted before their draining
		// period was up, on either side.
		"quic_draining_evicted_total ",
		"quic_listener_draining_evicted_total ",
		// The server side counts what it holds and every datagram it
		// drops, by reason.
		"quic_listener_conns ",
		"quic_listener_late_packets_total ",
		"quic_listener_drops_total{reason=\"token\"} ",
		"quic_listener_drops_total{reason=\"short_initial\"} ",
		"quic_listener_drops_total{reason=\"draining_initial\"} ",
		"quic_listener_drops_total{reason=\"no_route\"} ",
		"quic_listener_drops_total{reason=\"empty\"} ",
		"quic_listener_drops_total{reason=\"bad_header\"} ",
		"quic_listener_drops_total{reason=\"short_header\"} ",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics lacks series %q", series)
		}
	}
	// Every scan above closed its connections, so the listeners hold
	// (next to) none: the gauge follows connections open, not served,
	// and a retire counted twice would have driven it negative.
	if open := telemetry.Default().Snapshot().Gauges["quic_listener_conns"]; open < 0 || open > 8 {
		t.Errorf("quic_listener_conns = %d after every client closed, want about 0", open)
	}
	fams := telemetry.Default().Snapshot().Families()
	for _, want := range []string{"quic", "core", "zmapquic", "simnet", "campaign", "migration", "resumption"} {
		found := false
		for _, f := range fams {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("snapshot families %v lack %q", fams, want)
		}
	}
}
