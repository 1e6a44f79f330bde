package campaign

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
	"quicscan/internal/zmapquic"
)

// parityWorld is a simnet in which every fourth address answers forced
// version negotiation, and every 32nd answers it with the two
// connection IDs the wrong way round: a response the scanner must count
// and refuse.
func parityWorld(t *testing.T) *simnet.Network {
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

// TestSweepMatchesScanAddrs runs the two scan entry points over the same
// addresses of one world. They share the flush and the response
// handler, so they must find the same hits with the same number of
// probes and move the registry by the same amounts.
func TestSweepMatchesScanAddrs(t *testing.T) {
	n := parityWorld(t)
	sw := zmapquic.NewSweep(7, []netip.Prefix{
		netip.MustParsePrefix("203.0.113.0/24"),
		netip.MustParsePrefix("198.51.100.0/23"),
	})
	counters := []string{
		"zmapquic_probes_sent_total", "zmapquic_batch_probes_total",
		"zmapquic_responses_total", "zmapquic_invalid_responses_total",
	}
	deltas := func(run func()) map[string]uint64 {
		before := telemetry.Default().Snapshot().Counters
		run()
		after := telemetry.Default().Snapshot().Counters
		d := make(map[string]uint64)
		for _, c := range counters {
			d[c] = after[c] - before[c]
		}
		return d
	}

	sweepHits := make(map[netip.Addr]int)
	var sweepProbes uint64
	viaSweep := deltas(func() {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		zs := &zmapquic.Scanner{Conn: pc, Cooldown: 200 * time.Millisecond}
		eng, err := New(Config{Sweep: sw, Shards: 4, Probe: ProbeWith(zs)})
		if err != nil {
			t.Fatal(err)
		}
		err = eng.Sweep(context.Background(), zs, []net.PacketConn{pc}, func(r zmapquic.Result) {
			sweepHits[r.Addr]++ // unguarded on purpose: hit is called one at a time
		})
		if err != nil {
			t.Fatal(err)
		}
		sweepProbes = eng.Progress().Probes
	})

	var addrs []netip.Addr
	for a := range shardWalkCounts(sw, 1) {
		addrs = append(addrs, a)
	}
	var (
		listHits []zmapquic.Result
		stats    zmapquic.Stats
	)
	viaList := deltas(func() {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		zs := &zmapquic.Scanner{Conn: pc, Cooldown: 200 * time.Millisecond}
		listHits, stats, err = zs.ScanAddrs(context.Background(), addrs)
		if err != nil {
			t.Fatal(err)
		}
	})

	if want := 768 / 4; len(sweepHits) != want || len(listHits) != want {
		t.Fatalf("sweep found %d responders, list scan %d, want %d each", len(sweepHits), len(listHits), want)
	}
	for _, r := range listHits {
		if sweepHits[r.Addr] != 1 {
			t.Errorf("%v: hit by the list scan, reported %d times by the sweep", r.Addr, sweepHits[r.Addr])
		}
	}
	if sweepProbes != 768 || stats.ProbesSent != 768 {
		t.Errorf("sweep sent %d probes, list scan %d, want 768 each", sweepProbes, stats.ProbesSent)
	}
	for _, c := range counters {
		if viaSweep[c] != viaList[c] || viaSweep[c] == 0 {
			t.Errorf("%s moved by %d in the sweep and by %d in the list scan", c, viaSweep[c], viaList[c])
		}
	}
	if got := viaList["zmapquic_invalid_responses_total"]; got != uint64(stats.InvalidResponses) || got != 768/32 {
		t.Errorf("invalid responses: registry %d, Stats %d, want %d", got, stats.InvalidResponses, 768/32)
	}
	if got := viaList["zmapquic_responses_total"]; got != uint64(stats.Responses) {
		t.Errorf("responses: registry %d, Stats %d", got, stats.Responses)
	}
}

// TestSweepCancelIsTheGracefulStop is Ctrl-C on cmd/zmapquic -prefixes:
// the context dies mid-sweep, and Sweep must return at once (the
// cooldown is for a sweep that finished) with the final cursors on disk
// and no collector left running.
func TestSweepCancelIsTheGracefulStop(t *testing.T) {
	n := parityWorld(t)
	var conns []net.PacketConn
	for i := 0; i < 2; i++ {
		pc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		conns = append(conns, pc)
	}
	zs := &zmapquic.Scanner{Conn: conns[0], Cooldown: 3 * time.Second}
	probe := ProbeWith(zs)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		sent        atomic.Int64
		cancelledAt atomic.Int64 // UnixNano
	)
	path := filepath.Join(t.TempDir(), "state.json")
	sw := zmapquic.NewSweep(9, []netip.Prefix{netip.MustParsePrefix("10.9.0.0/16")})
	eng, err := New(Config{
		Sweep:  sw,
		Shards: 4,
		Probe: func(ctx context.Context, addr netip.Addr) error {
			if sent.Add(1) == 5000 {
				cancelledAt.Store(time.Now().UnixNano())
				cancel()
			}
			return probe(ctx, addr)
		},
		CheckpointPath:  path,
		CheckpointEvery: time.Hour, // only the first and the final write
	})
	if err != nil {
		t.Fatal(err)
	}
	err = eng.Sweep(ctx, zs, conns, func(zmapquic.Result) {})
	took := time.Since(time.Unix(0, cancelledAt.Load()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep = %v, want context.Canceled", err)
	}
	if took > 100*time.Millisecond {
		t.Errorf("Sweep returned %v after the cancel; it sat out the cooldown", took)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("no valid final checkpoint: %v", err)
	}
	var units uint64
	for _, sc := range cp.Cursors {
		units += sc.Cursor
		if sc.Done {
			t.Errorf("shard %d marked done in a sweep stopped at %d of %d", sc.Shard, sent.Load(), sw.Total())
		}
	}
	if p := eng.Progress(); units != p.Units || units == 0 {
		t.Errorf("checkpoint holds %d units, the engine stopped at %d", units, p.Units)
	}

	// The collectors have returned; the goroutines context.AfterFunc
	// started to interrupt their reads may need a moment to.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Errorf("%d goroutines before the sweep, %d after", baseline, now)
	}
}

// TestSweepCancelInTheCooldown: the sweep itself finished, but a signal
// that cuts the cooldown short drops the answers still in flight, so
// Sweep must not report a clean run (cmd/zmapquic would print "campaign
// complete" and exit 0 after Ctrl-C).
func TestSweepCancelInTheCooldown(t *testing.T) {
	n := parityWorld(t)
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	zs := &zmapquic.Scanner{Conn: pc, Cooldown: 3 * time.Second}
	eng, err := New(Config{
		Sweep: zmapquic.NewSweep(9, []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")}),
		Probe: ProbeWith(zs),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt atomic.Int64 // UnixNano
	go func() {
		for eng.Progress().ShardsDone == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // Run has returned; Sweep is cooling down
		cancelledAt.Store(time.Now().UnixNano())
		cancel()
	}()
	err = eng.Sweep(ctx, zs, []net.PacketConn{pc}, func(zmapquic.Result) {})
	took := time.Since(time.Unix(0, cancelledAt.Load()))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep = %v after a cancel in its cooldown, want context.Canceled", err)
	}
	if cancelledAt.Load() == 0 || took > 100*time.Millisecond {
		t.Errorf("Sweep returned %v after the cancel; it sat out the cooldown", took)
	}
	if p := eng.Progress(); p.Probes != 256 {
		t.Errorf("%d probes sent, want the whole /24: the cancel was to land after the run", p.Probes)
	}
}

// TestShardWalkerSharesTheCore: a Probe that never blocks must not keep
// the only P to itself, or on one core the collectors and in-process
// responders of a sweep first run when all of it has left. Another
// goroutine gets a turn about once per send batch; without the yield in
// runShard this sweep is over before it gets one.
func TestShardWalkerSharesTheCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sw := zmapquic.NewSweep(3, []netip.Prefix{netip.MustParsePrefix("10.3.0.0/20")})
	eng, err := New(Config{
		Sweep: sw,
		Probe: func(context.Context, netip.Addr) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var turns atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				turns.Add(1)
				runtime.Gosched()
			}
		}
	}()
	err = eng.Run(context.Background())
	close(stop)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	if got, want := turns.Load(), int64(sw.Total()/zmapquic.SendBatchSize/2); got < want {
		t.Errorf("a neighbour ran %d times during a sweep of %d addresses, want at least %d", got, sw.Total(), want)
	}
}
