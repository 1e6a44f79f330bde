package main

// decl declares one metric. BENCHMARK.json carries the same table for
// the driver; bench_test.go holds the two equal.
type decl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the metrics a user of the pipeline sees. Every workload
// reports every one; value = median over repetitions.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the ledger's metrics, <module>.<metric>, measured from
// outside the program in the traced run. They carry no bound.
var perLayer = []decl{
	{"quicwire.parse_initial_ns", "ns", "lower", 0},
	{"quicwire.parse_vn_ns", "ns", "lower", 0},
	{"quicwire.frames_roundtrip_ns", "ns", "lower", 0},

	{"quiccrypto.initial_keys_ns", "ns", "lower", 0},
	{"quiccrypto.seal_open_1200_ns", "ns", "lower", 0},

	{"transportparams.marshal_unmarshal_ns", "ns", "lower", 0},

	{"tls13.full_ms", "ms", "lower", 0},
	{"tls13.resumed_ms", "ms", "lower", 0},

	{"quic.dial_ms_p50", "ms", "lower", 0},
	{"quic.dial_ms_p99", "ms", "lower", 0},
	{"quic.dial_retry_ms_p50", "ms", "lower", 0},
	{"quic.dial_resumed_ms_p50", "ms", "lower", 0},
	{"quic.dial_0rtt_ms_p50", "ms", "lower", 0},
	{"quic.close_ms_p50", "ms", "lower", 0},
	{"quic.self_dial_ms", "ms", "lower", 0},
	{"quic.datagrams_per_op", "count", "lower", 0},
	{"quic.bytes_per_op", "B", "lower", 0},
	{"quic.retransmits_per_kop", "count", "lower", 0},
	{"quic.pto_fired_per_kop", "count", "lower", 0},
	{"quic.routing_misses", "count", "lower", 0},
	{"quic.dropped_datagrams", "count", "lower", 0},
	{"quic.resumed_share", "ratio", "higher", 0},
	{"quic.zero_rtt_accepted_share", "ratio", "higher", 0},
	{"quic.token_replays_per_kop", "count", "higher", 0},
	{"quic.heap_kb_per_conn", "KB", "lower", 0},

	{"h3.head_ms_p50", "ms", "lower", 0},
	{"h3.qpack_roundtrip_ns", "ns", "lower", 0},

	{"core.scan_target_ms_p50", "ms", "lower", 0},
	{"core.scan_target_ms_p99", "ms", "lower", 0},
	{"core.rescan_target_ms_p50", "ms", "lower", 0},
	{"core.self_ms", "ms", "lower", 0},
	{"core.handshake_ms_p50", "ms", "lower", 0},
	{"core.handshake_ms_p99", "ms", "lower", 0},
	{"core.attempts_per_op", "count", "lower", 0},
	{"core.certcache_hit_ratio", "ratio", "higher", 0},

	{"zmapquic.build_probe_ns", "ns", "lower", 0},
	{"zmapquic.validate_response_ns", "ns", "lower", 0},
	{"zmapquic.permute_ns_per_addr", "ns", "lower", 0},
	{"zmapquic.dense_probes_per_s", "1/s", "higher", 0},
	{"zmapquic.probes_per_flush", "count", "higher", 0},
	{"zmapquic.invalid_responses", "count", "lower", 0},
	{"zmapquic.hit_share", "ratio", "higher", 0},

	{"netbatch.simnet_write_ns_per_dgram", "ns", "lower", 0},
	{"netbatch.simnet_read_ns_per_dgram", "ns", "lower", 0},
	{"netbatch.loopback_write_ns_per_dgram", "ns", "lower", 0},
	{"netbatch.loopback_read_ns_per_dgram", "ns", "lower", 0},
	{"netbatch.fallback_writes", "count", "lower", 0},

	{"campaign.ns_per_addr", "ns", "lower", 0},
	{"campaign.sink_records_per_s", "1/s", "higher", 0},
	{"campaign.sink_drops", "count", "lower", 0},
	{"campaign.checkpoint_write_ms", "ms", "lower", 0},

	{"simnet.udp_rtt_ns", "ns", "lower", 0},
	{"simnet.synthetic_ns_per_dgram", "ns", "lower", 0},
	{"simnet.stream_rtt_ns", "ns", "lower", 0},
	{"simnet.delivered_per_op", "count", "lower", 0},
	{"simnet.lost", "count", "lower", 0},
	{"sock.writes_per_op", "count", "lower", 0},
	{"sock.read_wait_share", "ratio", "higher", 0},

	{"internet.build_ms", "ms", "lower", 0},
	{"internet.start_ms", "ms", "lower", 0},
	{"internet.heap_mb", "MB", "lower", 0},
	{"internet.goroutines", "count", "lower", 0},

	{"dnswire.https_roundtrip_ns", "ns", "lower", 0},
	{"dnsclient.queries_per_s", "1/s", "higher", 0},
	{"dnsclient.retries_per_kquery", "count", "lower", 0},

	{"tlsscan.targets_per_s", "1/s", "higher", 0},
	{"tlsscan.target_ms_p50", "ms", "lower", 0},
	{"altsvc.parse_ns", "ns", "lower", 0},
	{"asdb.lookup_ns", "ns", "lower", 0},
	{"analysis.render_all_ms", "ms", "lower", 0},

	{"experiments.dns_s", "s", "lower", 0},
	{"experiments.zmap_s", "s", "lower", 0},
	{"experiments.tls_s", "s", "lower", 0},
	{"experiments.stateful_s", "s", "lower", 0},
	{"experiments.tcp_compare_s", "s", "lower", 0},
	{"experiments.padding_s", "s", "lower", 0},

	{"telemetry.counter_inc_ns", "ns", "lower", 0},
	{"telemetry.snapshot_ms", "ms", "lower", 0},
	{"host.calib_ns", "ns", "lower", 0},
	{"host.calib_drift_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.recorder_pct", "%", "lower", 0},
	{"ledger.residual_pct", "%", "lower", 0},
}

func unitOf(table []decl, name string) (string, bool) {
	for _, d := range table {
		if d.name == name {
			return d.unit, true
		}
	}
	return "", false
}
