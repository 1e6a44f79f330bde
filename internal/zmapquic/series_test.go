package zmapquic_test

import (
	"context"
	"net"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"quicscan/internal/campaign"
	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
	"quicscan/internal/zmapquic"
)

// statsSeries lists every field of zmapquic.Stats and campaign.Progress
// beside the registry series it feeds, or "none" with the reason. A
// field's owner is its only count: the series is the sum of the field
// over the owners.
var statsSeries = []struct {
	owner, field, series string
}{
	{"Stats", "ProbesSent", "zmapquic_probes_sent_total"},
	{"Stats", "BytesSent", "zmapquic_probe_bytes_total"},
	{"Stats", "Responses", "zmapquic_responses_total"},
	{"Stats", "InvalidResponses", "zmapquic_invalid_responses_total"},
	{"Stats", "Blocked", "zmapquic_blocked_total"},
	{"Stats", "Reprobes", "zmapquic_reprobes_total"},

	{"Progress", "Shards", "none: the shards owned, not an event"},
	// Of an engine that restored no checkpoint: restored shards are done
	// but were not completed by this engine.
	{"Progress", "ShardsDone", "campaign_shards_completed_total"},
	{"Progress", "Units", "none: cursor positions, cycle-walk skips and restored progress included"},
	{"Progress", "Probes", "campaign_probes_total"},
}

// seriesWorld is a simnet in which every fourth address answers forced
// version negotiation, and every 32nd answers it with the two
// connection IDs the wrong way round: a response the scanner must count
// and refuse.
func seriesWorld(t *testing.T) *simnet.Network {
	t.Helper()
	n := simnet.New(simnet.Config{Seed: 20})
	t.Cleanup(n.Close)
	versions := []quicwire.Version{quicwire.Version1, quicwire.VersionDraft29}
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		hdr, _, err := quicwire.ParseLongHeader(payload)
		if err != nil || !hdr.Version.IsForcedNegotiation() {
			return nil
		}
		switch last := dst.Addr().As4()[3]; {
		case last%32 == 1:
			return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.DstID, hdr.SrcID, 0x2a, versions)}
		case last%4 == 0:
			return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0x2a, versions)}
		}
		return nil
	})
	return n
}

// TestStatsFeedTheirSeries: a list scan with a blocklist, a second pass
// over its silent targets and invalid answers, and a campaign sweep
// beside it. Snapshots taken while they run never see a series go down
// (an event counted twice, or not at all, while an owner detaches would
// show as one); once every owner has detached, each series in
// statsSeries has moved by the sum of its field over the owners. The
// table names every field of the two structs.
func TestStatsFeedTheirSeries(t *testing.T) {
	for owner, typ := range map[string]reflect.Type{
		"Stats":    reflect.TypeOf(zmapquic.Stats{}),
		"Progress": reflect.TypeOf(campaign.Progress{}),
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

	n := seriesWorld(t)
	listConn, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	defer listConn.Close()
	sweepConn, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	defer sweepConn.Close()
	var targets []netip.Addr
	for i := 0; i < 256; i++ {
		targets = append(targets, netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}))
	}
	blocklist, err := zmapquic.ParseBlocklist(strings.NewReader("203.0.113.0/28"))
	if err != nil {
		t.Fatal(err)
	}
	lister := &zmapquic.Scanner{
		Conn:      listConn,
		Cooldown:  100 * time.Millisecond,
		Retries:   1,
		Blocklist: blocklist,
	}
	sweeper := &zmapquic.Scanner{Conn: sweepConn, Cooldown: 100 * time.Millisecond}
	eng, err := campaign.New(campaign.Config{
		Sweep:  zmapquic.NewSweep(7, []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")}),
		Shards: 4,
		Probe:  campaign.ProbeWith(sweeper),
	})
	if err != nil {
		t.Fatal(err)
	}

	var series []string
	for _, row := range statsSeries {
		if !strings.HasPrefix(row.series, "none") {
			series = append(series, row.series)
		}
	}
	before := telemetry.Default().Snapshot().Counters
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		last := before
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := telemetry.Default().Snapshot().Counters
			for _, name := range series {
				if now[name] < last[name] {
					t.Errorf("%s went down from %d to %d", name, last[name], now[name])
				}
			}
			last = now
		}
	}()

	var (
		wg                       sync.WaitGroup
		list                     zmapquic.Stats
		listErr, sweepErr        error
		sweepResponses, sweepBad int
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, list, listErr = lister.ScanAddrs(context.Background(), targets)
	}()
	go func() {
		defer wg.Done()
		// Engine.Sweep's call, keeping what its collectors counted.
		sweepResponses, sweepBad, sweepErr = sweeper.Collect(context.Background(),
			[]net.PacketConn{sweepConn}, eng.Run, func(zmapquic.Result) {})
	}()
	wg.Wait()
	close(stop)
	<-watched
	if listErr != nil || sweepErr != nil {
		t.Fatalf("list scan: %v, sweep: %v", listErr, sweepErr)
	}
	after := telemetry.Default().Snapshot().Counters

	progress := eng.Progress()
	// The sweep's probes leave through SendProbe, whose count is the
	// registry's own, one 1200-byte probe for each the engine counted.
	sweep := zmapquic.Stats{
		ProbesSent:       int(progress.Probes),
		BytesSent:        int64(progress.Probes) * zmapquic.ProbeSize,
		Responses:        sweepResponses,
		InvalidResponses: sweepBad,
	}
	owners := map[string][]any{"Stats": {list, sweep}, "Progress": {progress}}
	for _, row := range statsSeries {
		if strings.HasPrefix(row.series, "none") {
			continue
		}
		var sum uint64
		for _, o := range owners[row.owner] {
			v := reflect.ValueOf(o).FieldByName(row.field)
			if v.CanInt() {
				sum += uint64(v.Int())
			} else {
				sum += v.Uint()
			}
		}
		if moved := after[row.series] - before[row.series]; moved != sum {
			t.Errorf("%s moved by %d, want %d, the sum of %s.%s", row.series, moved, sum, row.owner, row.field)
		}
	}

	// The scans exercised what the table claims: 16 blocked, 60
	// responders and 7 refused answers in each of two passes over the
	// other 240, whose 180 silent targets are probed again.
	if list.Blocked != 16 || list.Reprobes != 180 || list.Responses != 60 || list.InvalidResponses != 14 {
		t.Errorf("list scan: %+v", list)
	}
	if progress.Probes != 256 || progress.ShardsDone != 4 || sweepResponses != 64 || sweepBad != 8 {
		t.Errorf("sweep: %+v, %d responses, %d invalid", progress, sweepResponses, sweepBad)
	}
}
