package quic

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
)

// statsSeries lists every field of TransportStats, Stats and
// simnet.ImpairmentStats beside the registry series it feeds, or "none"
// with the reason. A field's owner is its only count: the series is the
// sum of the field over the owners (for quic_handshake_ms, the
// histogram's count is the number of owners whose field is set).
var statsSeries = []struct {
	owner, field, series string
}{
	{"TransportStats", "Sockets", "none: the pool's size, not an event"},
	{"TransportStats", "ActiveConns", "quic_active_conns"},
	{"TransportStats", "Dials", "quic_dials_total"},
	{"TransportStats", "DatagramsIn", "quic_datagrams_in_total"},
	{"TransportStats", "DatagramsOut", "quic_datagrams_out_total"},
	{"TransportStats", "BytesIn", "quic_bytes_in_total"},
	{"TransportStats", "BytesOut", "quic_bytes_out_total"},
	{"TransportStats", "RoutingMisses", "quic_routing_misses_total"},
	{"TransportStats", "LatePackets", "quic_late_packets_total"},
	{"TransportStats", "Dropped", "quic_dropped_datagrams_total"},

	{"Stats", "VersionNegotiation", "none: also set on the retried dial; quic_version_negotiation_total counts the packets"},
	{"Stats", "ServerVersions", "none: quic_vn_server_versions_total counts each offer at receipt"},
	{"Stats", "Retried", "quic_retry_packets_total"},
	{"Stats", "Retransmits", "quic_retransmits_total"},
	{"Stats", "HandshakeDuration", "quic_handshake_ms"},
	{"Stats", "PathChallengesSent", "quic_path_challenges_sent_total"},
	{"Stats", "PathChallengesReceived", "quic_path_challenges_received_total"},
	{"Stats", "PathValidations", "quic_path_validations_total"},
	{"Stats", "PathValidationFailures", "quic_path_validation_failures_total"},
	{"Stats", "Migrations", "quic_migrations_total"},

	{"ImpairmentStats", "Delivered", "simnet_delivered_total"},
	{"ImpairmentStats", "Lost", "simnet_lost_total"},
	{"ImpairmentStats", "Corrupted", "simnet_corrupted_total"},
	{"ImpairmentStats", "Duplicated", "simnet_duplicated_total"},
	{"ImpairmentStats", "Reordered", "simnet_reordered_total"},
	{"ImpairmentStats", "MTUDropped", "simnet_mtu_dropped_total"},
}

// seriesValue reads a series from a snapshot: a counter, the sum of a
// labelled family, a gauge, or a histogram's count.
func seriesValue(s telemetry.Snapshot, name string) int64 {
	if v, ok := s.Counters[name]; ok {
		return int64(v)
	}
	if v, ok := s.Gauges[name]; ok {
		return v
	}
	if h, ok := s.Histograms[name]; ok {
		return int64(h.Count)
	}
	var sum int64
	for sn, v := range s.Counters {
		if strings.HasPrefix(sn, name+"{") {
			sum += int64(v)
		}
	}
	return sum
}

// fieldValue is a stats field as a count: a number as it is, a flag or
// a duration as 1 when set.
func fieldValue(owner any, field string) int64 {
	v := reflect.ValueOf(owner).FieldByName(field)
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case reflect.Int64: // time.Duration
		if v.Int() > 0 {
			return 1
		}
		return 0
	case reflect.Int:
		return v.Int()
	default:
		return int64(v.Uint())
	}
}

// TestStatsFeedTheirSeries: after a small scan on a simulated network —
// a lossy server, a Retry server, a NAT rebinding and an active
// migration — with every owner closed, each registry series in
// statsSeries moved by the sum of its field over the owners: the
// Transport, every connection on both sides, and the network. The table
// names every field of the three structs.
func TestStatsFeedTheirSeries(t *testing.T) {
	for owner, typ := range map[string]reflect.Type{
		"TransportStats":  reflect.TypeOf(TransportStats{}),
		"Stats":           reflect.TypeOf(Stats{}),
		"ImpairmentStats": reflect.TypeOf(simnet.ImpairmentStats{}),
	} {
		listed := 0
		for _, row := range statsSeries {
			if row.owner == owner {
				if _, ok := typ.FieldByName(row.field); !ok {
					t.Errorf("%s has no field %s", owner, row.field)
				}
				listed++
			}
		}
		if listed != typ.NumField() {
			t.Errorf("%s: %d fields, %d listed", owner, typ.NumField(), listed)
		}
	}

	before := telemetry.Default().Snapshot()
	n := simnet.New(simnet.Config{Seed: 3})
	lossy := netip.MustParseAddrPort("10.9.1.1:443")
	retrying := netip.MustParseAddrPort("10.9.1.2:443")
	// Client to lossy server loses datagrams; every reply arrives, so
	// each server connection completes its handshake and is seen.
	n.SetPrefixProfile(netip.PrefixFrom(lossy.Addr(), 32), simnet.Profile{Loss: 0.5})
	n.SetPrefixProfile(netip.MustParsePrefix("198.18.0.0/15"), simnet.Profile{})

	var (
		mu      sync.Mutex
		servers []*Conn
	)
	scfg, pool := serverConfig(t, "series.test")
	var listeners []*Listener
	for _, s := range []struct {
		at     netip.AddrPort
		policy ServerPolicy
	}{
		{lossy, ServerPolicy{}},
		{retrying, ServerPolicy{Quirks: Quirks{Retry: RetryStrictDrop}}},
	} {
		pc, err := n.ListenUDP(s.at)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Listen(pc, scfg, s.policy, func(c *Conn) {
			mu.Lock()
			servers = append(servers, c)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, l)
	}

	cpc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(cpc)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := clientConfig(pool, "series.test")
	ccfg.PTO = 20 * time.Millisecond
	ccfg.MaxPTOs = 20
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var clients []*Conn
	for _, at := range []netip.AddrPort{lossy, lossy, lossy, retrying} {
		c, err := tr.Dial(ctx, net.UDPAddrFromAddrPort(at), ccfg)
		if err != nil {
			t.Fatalf("dial %v: %v", at, err)
		}
		clients = append(clients, c)
		// Everything in flight acknowledged: the server has the client's
		// Finished, so its handshake completes and serve sees it.
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("ping %v: %v", at, err)
		}
	}
	// A NAT rebinding the servers validate, then an active migration
	// toward the Retry server.
	if _, err := cpc.Rebind(); err != nil {
		t.Fatal(err)
	}
	migrating := clients[len(clients)-1]
	if err := migrating.Ping(ctx); err != nil {
		t.Fatalf("ping after the rebinding: %v", err)
	}
	if err := migrate(ctx, migrating, false); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		seen := len(servers)
		mu.Unlock()
		if seen == len(clients) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d server connections handed over, want %d", seen, len(clients))
		}
		time.Sleep(time.Millisecond)
	}

	for _, c := range clients {
		c.Close()
	}
	for _, l := range listeners {
		l.Close()
	}
	tr.Close()
	n.Close()
	after := telemetry.Default().Snapshot()

	owners := map[string][]any{
		"TransportStats":  {tr.Stats()},
		"ImpairmentStats": {n.ImpairmentStats()},
	}
	for _, c := range append(clients, servers...) {
		owners["Stats"] = append(owners["Stats"], c.Stats())
	}
	for _, row := range statsSeries {
		if strings.HasPrefix(row.series, "none") {
			continue
		}
		var sum int64
		for _, o := range owners[row.owner] {
			sum += fieldValue(o, row.field)
		}
		if moved := seriesValue(after, row.series) - seriesValue(before, row.series); moved != sum {
			t.Errorf("%s moved by %d, want %d, the sum of %s.%s", row.series, moved, sum, row.owner, row.field)
		}
	}
	// The scan exercised what the table claims.
	for _, want := range []struct{ owner, field string }{
		{"Stats", "Retransmits"}, {"Stats", "Retried"}, {"Stats", "PathChallengesReceived"},
		{"Stats", "PathValidations"}, {"Stats", "Migrations"}, {"ImpairmentStats", "Lost"},
	} {
		var sum int64
		for _, o := range owners[want.owner] {
			sum += fieldValue(o, want.field)
		}
		if sum == 0 {
			t.Errorf("the scan left %s.%s at 0", want.owner, want.field)
		}
	}
}

// TestClosedOwnersAreDetached: a closed Transport and a closed Network
// are not reachable from the registry, so the collector frees them.
func TestClosedOwnersAreDetached(t *testing.T) {
	n := simnet.New(simnet.Config{})
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(pc)
	if err != nil {
		t.Fatal(err)
	}
	weakT, weakN := weak.Make(tr), weak.Make(n)
	tr.Close()
	n.Close()
	for i := 0; i < 20 && (weakT.Value() != nil || weakN.Value() != nil); i++ {
		runtime.GC()
	}
	if weakT.Value() != nil {
		t.Error("a closed Transport is still reachable")
	}
	if weakN.Value() != nil {
		t.Error("a closed Network is still reachable")
	}
}

// refusingSocket is a socket whose writes fail while refuse is set.
type refusingSocket struct {
	net.PacketConn
	refuse atomic.Bool
}

var errRefused = errors.New("write refused")

func (s *refusingSocket) WriteTo(b []byte, to net.Addr) (int, error) {
	if s.refuse.Load() {
		return 0, errRefused
	}
	return s.PacketConn.WriteTo(b, to)
}

// TestRefusedWritesAreNotCounted: a datagram the socket did not take is
// not in a Transport's DatagramsOut and BytesOut.
func TestRefusedWritesAreNotCounted(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	at := netip.MustParseAddrPort("10.9.2.1:443")
	spc, err := n.ListenUDP(at)
	if err != nil {
		t.Fatal(err)
	}
	scfg, pool := serverConfig(t, "refused.test")
	l, err := Listen(spc, scfg, ServerPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cpc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	sock := &refusingSocket{PacketConn: cpc}
	tr, err := NewTransport(sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	remote := net.UDPAddrFromAddrPort(at)

	sock.refuse.Store(true)
	if _, err := tr.Dial(ctx, remote, clientConfig(pool, "refused.test")); err == nil {
		t.Fatal("a dial whose first write failed succeeded")
	}
	if st := tr.Stats(); st.Dials != 1 || st.DatagramsOut != 0 || st.BytesOut != 0 {
		t.Errorf("after a refused first write: %d dials, %d datagrams and %d bytes out, want 1, 0 and 0",
			st.Dials, st.DatagramsOut, st.BytesOut)
	}

	sock.refuse.Store(false)
	c, err := tr.Dial(ctx, remote, clientConfig(pool, "refused.test"))
	if err != nil {
		t.Fatal(err)
	}
	sent := tr.Stats()
	sock.refuse.Store(true)
	c.Close() // its CONNECTION_CLOSE is refused
	if st := tr.Stats(); st.DatagramsOut != sent.DatagramsOut || st.BytesOut != sent.BytesOut {
		t.Errorf("a refused CONNECTION_CLOSE counted: %d datagrams and %d bytes out, want %d and %d",
			st.DatagramsOut, st.BytesOut, sent.DatagramsOut, sent.BytesOut)
	}
}
