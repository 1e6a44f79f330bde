package core

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"quicscan/internal/quic"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
)

// TestStatsRaceDuringScan is the torn-read regression test: it
// hammers Scanner.TransportStats and the registry snapshot while a
// 256-connection scan is in flight. Any non-atomic counter access in
// the stats paths shows up under -race. Every reader sees its counts
// only grow, and the scanner's Transport is the registry's count of its
// traffic: over the scan each quic_* client series moved by exactly the
// final TransportStats field it reads.
func TestStatsRaceDuringScan(t *testing.T) {
	w := newWorld(t)
	var servers []netip.Addr
	for i := 0; i < 4; i++ {
		addr := fmt.Sprintf("192.0.2.%d:443", 50+i)
		servers = append(servers, w.addServer(t, addr, serverParams(), quic.ServerPolicy{}, "srv", "race.test"))
	}

	s := newScanner(t, w)
	s.Workers = 64
	s.SkipHTTP = true

	targets := make([]Target, 256)
	for i := range targets {
		targets[i] = Target{Addr: servers[i%len(servers)], SNI: "race.test"}
	}

	// The series each TransportStats field feeds (the full table is
	// quic's TestStatsFeedTheirSeries).
	series := func(st quic.TransportStats) map[string]uint64 {
		return map[string]uint64{
			"quic_dials_total":             st.Dials,
			"quic_datagrams_in_total":      st.DatagramsIn,
			"quic_datagrams_out_total":     st.DatagramsOut,
			"quic_bytes_in_total":          st.BytesIn,
			"quic_bytes_out_total":         st.BytesOut,
			"quic_routing_misses_total":    st.RoutingMisses,
			"quic_late_packets_total":      st.LatePackets,
			"quic_dropped_datagrams_total": st.Dropped,
		}
	}
	read := func(snap telemetry.Snapshot, name string) uint64 {
		sum := snap.Counters[name]
		for sn, v := range snap.Counters {
			if strings.HasPrefix(sn, name+"{") {
				sum += v
			}
		}
		return sum
	}
	before := telemetry.Default().Snapshot()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last quic.TransportStats
			var lastDials uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				if st, ok := s.TransportStats(); ok {
					if st.Dials < last.Dials || st.DatagramsIn < last.DatagramsIn || st.BytesOut < last.BytesOut {
						t.Errorf("TransportStats went back: %+v after %+v", st, last)
						return
					}
					last = st
				}
				snap := telemetry.Default().Snapshot()
				d := snap.Counters["quic_dials_total"]
				if d < lastDials {
					t.Errorf("quic_dials_total went back: %d after %d", d, lastDials)
					return
				}
				lastDials = d
				_ = snap.Histograms["core_handshake_ms"].Count
			}
		}()
	}

	results := s.Scan(context.Background(), targets)
	close(done)
	wg.Wait()

	sum := Summarize(results)
	if sum.Success != len(targets) {
		t.Fatalf("successes = %d/%d: %s", sum.Success, len(targets), sum)
	}
	st, ok := s.TransportStats()
	if !ok {
		t.Fatal("no transport opened")
	}
	after := telemetry.Default().Snapshot()
	if st.Dials < uint64(len(targets)) {
		t.Errorf("dials = %d, want >= %d", st.Dials, len(targets))
	}
	for name, want := range series(st) {
		if moved := read(after, name) - read(before, name); moved != want {
			t.Errorf("%s moved by %d over the scan, want the transport's %d", name, moved, want)
		}
	}
}

// assertEventOrder checks that want appears as an ordered subsequence
// of the trace's event names.
func assertEventOrder(t *testing.T, events []telemetry.Event, want []string) {
	t.Helper()
	names := telemetry.EventNames(events)
	i := 0
	for _, n := range names {
		if i < len(want) && n == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Errorf("missing %q in trace; want subsequence %v, got %v", want[i], want, names)
	}
}

// TestGoldenQlogCleanHandshake: a handshake over a perfect link must
// produce a trace with the canonical event progression and no loss
// recovery events.
func TestGoldenQlogCleanHandshake(t *testing.T) {
	w := newWorld(t)
	addr := w.addServer(t, "192.0.2.60:443", serverParams(), quic.ServerPolicy{}, "srv", "clean.test")

	s := newScanner(t, w)
	s.SkipHTTP = true
	dir := t.TempDir()
	tracer, err := telemetry.NewTracer(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Tracer = tracer

	res := s.ScanTarget(context.Background(), Target{Addr: addr, SNI: "clean.test"})
	if res.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s (%s)", res.Outcome, res.Error)
	}

	files, err := telemetry.TraceFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("trace files = %d, want 1 (%v)", len(files), files)
	}
	events, err := telemetry.ParseTraceFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	assertEventOrder(t, events, []string{
		"trace_start",
		"connection_started",
		"packet_sent",
		"packet_received",
		"handshake_state", // keys installed
		"transport_parameters_received",
		"handshake_state", // done
		"connection_closed",
	})
	for _, e := range events {
		if e.Name == "pto_fired" || e.Name == "retransmit" {
			t.Errorf("clean handshake trace contains loss recovery event %q", e.Name)
		}
	}
	// Timestamps must be monotonically non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].TimeMs < events[i-1].TimeMs {
			t.Fatalf("event %d time %.3f < previous %.3f", i, events[i].TimeMs, events[i-1].TimeMs)
		}
	}
}

// TestGoldenQlogRecoveredLossHandshake: with the link fully lossy
// until it heals mid-handshake, the trace must show the PTO firing and
// the retransmission that repaired the handshake, before completion.
func TestGoldenQlogRecoveredLossHandshake(t *testing.T) {
	w := newWorld(t)
	addr := w.addServer(t, "192.0.2.61:443", serverParams(), quic.ServerPolicy{}, "srv", "lossy.test")
	prefix := netip.MustParsePrefix("192.0.2.61/32")
	w.net.SetPrefixProfile(prefix, simnet.Profile{Loss: 1})
	heal := time.AfterFunc(120*time.Millisecond, func() {
		w.net.SetPrefixProfile(prefix, simnet.Profile{})
	})
	defer heal.Stop()

	s := newScanner(t, w)
	s.SkipHTTP = true
	s.PTO = 30 * time.Millisecond
	dir := t.TempDir()
	tracer, err := telemetry.NewTracer(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Tracer = tracer

	res := s.ScanTarget(context.Background(), Target{Addr: addr, SNI: "lossy.test"})
	if res.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s (%s), want success after link healed", res.Outcome, res.Error)
	}
	if res.Retransmits == 0 {
		t.Error("result records no retransmits despite 120ms of total loss")
	}

	files, err := telemetry.TraceFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("trace files = %d, want 1 (%v)", len(files), files)
	}
	events, err := telemetry.ParseTraceFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	assertEventOrder(t, events, []string{
		"trace_start",
		"connection_started",
		"packet_sent",
		"pto_fired",
		"retransmit",
		"packet_received",
		"handshake_state",
		"connection_closed",
	})
	// The repair must happen before completion: the first pto_fired
	// precedes the handshake_state done event.
	var ptoAt, doneAt float64 = -1, -1
	for _, e := range events {
		if e.Name == "pto_fired" && ptoAt < 0 {
			ptoAt = e.TimeMs
		}
		if e.Name == "handshake_state" && e.Data["state"] == "done" {
			doneAt = e.TimeMs
		}
	}
	if ptoAt < 0 || doneAt < 0 || ptoAt >= doneAt {
		t.Errorf("pto at %.3fms, handshake done at %.3fms; want pto before done", ptoAt, doneAt)
	}
}

// TestHandshakeRTTPercentiles: the core_handshake_ms histogram must
// accumulate every successful handshake and yield ordered percentile
// estimates — the data behind the EXPERIMENTS.md latency table. The
// serial arm measures clean per-handshake latency on a 5ms±2ms link;
// the concurrent arm shows the queueing that 8 workers hammering one
// server add on top.
func TestHandshakeRTTPercentiles(t *testing.T) {
	w := newWorld(t)
	addr := w.addServer(t, "192.0.2.70:443", serverParams(), quic.ServerPolicy{}, "srv", "rtt.test")
	w.net.SetProfile(simnet.Profile{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond})

	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"concurrent-8", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := telemetry.Default().Snapshot().Histograms["core_handshake_ms"]

			s := newScanner(t, w)
			s.SkipHTTP = true
			s.Workers = tc.workers
			targets := make([]Target, 32)
			for i := range targets {
				targets[i] = Target{Addr: addr, SNI: "rtt.test"}
			}
			sum := Summarize(s.Scan(context.Background(), targets))
			if sum.Success != len(targets) {
				t.Fatalf("successes = %d/%d", sum.Success, len(targets))
			}

			h := telemetry.Default().Snapshot().Histograms["core_handshake_ms"]
			if h.Count-before.Count != uint64(len(targets)) {
				t.Fatalf("histogram count grew by %d, want %d", h.Count-before.Count, len(targets))
			}
			// Other tests in the package observe into the same global
			// histogram; quantiles are computed on this run's delta.
			delta := telemetry.HistogramSnapshot{
				Bounds: h.Bounds,
				Counts: make([]uint64, len(h.Counts)),
				Count:  h.Count - before.Count,
				Sum:    h.Sum - before.Sum,
			}
			for i := range h.Counts {
				delta.Counts[i] = h.Counts[i]
				if i < len(before.Counts) {
					delta.Counts[i] -= before.Counts[i]
				}
			}
			p50, p90, p99 := delta.Quantile(0.5), delta.Quantile(0.9), delta.Quantile(0.99)
			t.Logf("handshake RTT percentiles (5ms±2ms link, %s): p50=%.2fms p90=%.2fms p99=%.2fms",
				tc.name, p50, p90, p99)
			if p50 <= 0 || p50 > p90 || p90 > p99 {
				t.Errorf("percentiles not ordered: p50=%.3f p90=%.3f p99=%.3f", p50, p90, p99)
			}
			// Two 5ms one-way trips bound the handshake from below;
			// with jitter, processing and queueing it still lands well
			// under a second.
			if p50 < 5 || p50 > 1000 {
				t.Errorf("p50 = %.3fms implausible for a 5ms-latency link", p50)
			}
		})
	}
}
