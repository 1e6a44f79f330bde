package quicscan

import "testing"

// Allocation budgets: absolute ceilings on the counts the root
// benchmarks price, over the same closures the benchmarks loop over.
// A count needs no baseline file and no quiet host, so these run in
// tier-1; what is a timing fails itself inside its benchmark instead
// (BenchmarkResumedHandshakeRatio, BenchmarkTelemetryOverhead) and
// only scripts/check.sh runs it.

// minAllocs is the allocation count of one call of f: the smallest
// average over three rounds, because whatever else the process is doing
// while a round runs can only add to it.
func minAllocs(runs int, f func()) float64 {
	min := testing.AllocsPerRun(runs, f)
	for round := 1; round < 3; round++ {
		if got := testing.AllocsPerRun(runs, f); got < min {
			min = got
		}
	}
	return min
}

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
}

// TestResumedHandshakeAllocSurcharge holds what resumption costs the
// scanner in allocations. Go's TLS 1.3 resumption is psk_dhe_ke, and
// the client's PSK machinery (the larger ClientHello, the binder HMAC
// chain, session load, the refreshed ticket) allocates more than the
// certificate path it skips, so a resumed dial is dearer than a full
// one by a near-constant that is all crypto/tls's (DESIGN.md §14, §16).
// The bound is on that difference, not on a ratio: a ratio over the
// part both dials share rises when the shared part shrinks and nothing
// got worse. Measured at -cpu 1,2,4, 60 runs on an idle host and 42
// beside three CPU hogs or other packages' tests: full 723–734, resumed
// 852–861, surcharge 121–134.
func TestResumedHandshakeAllocSurcharge(t *testing.T) {
	skipUnderRace(t)
	const ceiling = 140
	full, resumed := newHandshakeDials(t)
	f, r := minAllocs(20, full), minAllocs(20, resumed)
	t.Logf("allocations per dial: full %.0f, resumed %.0f, surcharge %.0f (ceiling %d)", f, r, r-f, ceiling)
	if r-f > ceiling {
		t.Errorf("a resumed dial allocates %.0f more than a full one (%.0f against %.0f), over the ceiling of %d", r-f, r, f, ceiling)
	}
}

func TestAllocationBudgets(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []struct {
		name    string // the benchmark that loops over the same op, if there is one
		op      func(testing.TB) func()
		per     float64 // units of work in one op
		ceiling float64 // allocations per unit
		unit    string
	}{
		// Measured 10,054–10,062: 64 connections' set-up, ≈ 4.6 k of it
		// crypto/tls's ClientHello (DESIGN.md §8). The headroom is two
		// allocations per target.
		{"ScanSocketChurn/shared-transport", func(tb testing.TB) func() { scan, _ := newVNScan(tb); return scan }, 1, 10200, "64-target VN scan"},
		// Measured 7.17, at any sweep size: the responder's reply, its
		// way back through simnet and the collector's parse of it. The
		// probe's own path allocates nothing (SendProbe, below).
		{"ZmapSweep", newZmapSweep, zmapSweepTargets, 7.5, "probe"},
		// Exact: a pooled batch, one AES block, one send. And all that
		// validating an answer allocates is quicwire.ParseLongHeader's:
		// the Header and the version list it returns.
		{"SendProbe", func(tb testing.TB) func() { send, _ := newProbePath(tb); return send }, 1, 0, "probe"},
		{"ValidateResponse", func(tb testing.TB) func() { _, validate := newProbePath(tb); return validate }, 1, 2, "response"},
		// Exact: the PacketConn and its address.
		{"SimnetDialClose", newSimnetDialClose, 1, 2, "socket"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := minAllocs(5, c.op(t)) / c.per
			t.Logf("%.2f allocations per %s (ceiling %v)", got, c.unit, c.ceiling)
			if got > c.ceiling {
				t.Errorf("%.2f allocations per %s, over the ceiling of %v", got, c.unit, c.ceiling)
			}
		})
	}
}
