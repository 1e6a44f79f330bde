package campaign

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"quicscan/internal/internet"
	"quicscan/internal/zmapquic"
)

// TestKillResumeCoversMillionsExactlyOnce is the acceptance proof: a
// simulated sweep over a multi-million-address prefix (sized by build
// tag; see budget_norace_test.go) enclosing every IPv4 deployment of the
// simulated Internet is killed partway and resumed by a fresh engine
// from checkpoint plus journal — and across both runs every address
// in the prefix is visited exactly once. Probes are counted in a
// lock-free bitset; the universe is built, not started, since the
// proof is about coverage of the address walk, not the wire.
func TestKillResumeCoversMillionsExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-address sweep skipped in -short mode")
	}

	prefix := netip.MustParsePrefix(coveragePrefix)
	const total = uint64(coverageTotal)

	// The swept prefix must enclose the whole simulated IPv4 QUIC
	// population, or the "covers the internet" claim is vacuous.
	uni := internet.Build(internet.Spec{Seed: 1})
	var v4deps int
	for _, d := range uni.Deployments {
		if !d.Addr.Is4() {
			continue
		}
		v4deps++
		if !prefix.Contains(d.Addr) {
			t.Fatalf("deployment %v outside swept prefix %v — grow the coverage budget", d.Addr, prefix)
		}
	}
	if v4deps == 0 {
		t.Fatal("simulated internet has no IPv4 deployments")
	}

	// One bit per address; Or returns the old word, so a second visit
	// is detected without locks.
	base := binary.BigEndian.Uint32(prefix.Masked().Addr().AsSlice())
	bits := make([]atomic.Uint32, total/32)
	var dups atomic.Uint64
	mark := func(addr netip.Addr) {
		off := binary.BigEndian.Uint32(addr.AsSlice()) - base
		if old := bits[off/32].Or(1 << (off % 32)); old&(1<<(off%32)) != 0 {
			dups.Add(1)
		}
	}

	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "state.json")
	journalPath := filepath.Join(dir, "journal.ndjson")

	sweepFor := func() *zmapquic.Sweep {
		return zmapquic.NewSweep(9000, []netip.Prefix{prefix})
	}
	if got := sweepFor().Total(); got != total {
		t.Fatalf("sweep total = %d, want %d", got, total)
	}

	// Run 1: journal every probe, die at a random point in the first
	// sixteenth of the sweep (bounded so the journal stays small).
	rng := rand.New(rand.NewPCG(9000, 1))
	killAt := total/64 + uint64(rng.IntN(int(total/16-total/64)))

	jf, err := os.OpenFile(journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewNDJSONSink(jf, 512, true)
	var probed1 atomic.Uint64
	k := newKillSwitch()
	eng1, err := New(Config{
		Sweep:   sweepFor(),
		Shards:  16,
		Workers: 8,
		Probe: k.probe(func(_ context.Context, addr netip.Addr) error {
			mark(addr)
			if probed1.Add(1) == killAt {
				k.kill()
			}
			return nil
		}),
		Sink:            k.sink(sink),
		Journal:         true,
		CheckpointPath:  ckptPath,
		CheckpointEvery: 1, // checkpoint continuously while alive
	})
	if err != nil {
		t.Fatal(err)
	}
	k.arm(eng1)
	if err := eng1.Run(k.ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("run 1 = %v, want the kill's context.Canceled", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	t.Logf("run 1 killed after %d/%d probes", probed1.Load(), total)

	// Run 2: a fresh engine (the dead process's successor) restores
	// the checkpoint, fast-forwards cursors past the journal, and
	// finishes the sweep with journaling off for speed.
	eng2, err := New(Config{
		Sweep:   sweepFor(),
		Shards:  16,
		Workers: 8,
		Probe: func(_ context.Context, addr netip.Addr) error {
			mark(addr)
			return nil
		},
		Sink:           NullSink{},
		CheckpointPath: ckptPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("loading the killed run's checkpoint: %v", err)
	}
	if err := eng2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	err = eng2.ReplayJournal(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	resumedAt := eng2.Progress().Units
	if err := eng2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	probed2 := eng2.Progress().Probes

	// Exactly-once: no duplicates, no gaps, and the two runs' probe
	// counts sum to the prefix size.
	if d := dups.Load(); d != 0 {
		t.Fatalf("%d addresses probed more than once across kill and resume", d)
	}
	var visited uint64
	for i := range bits {
		w := bits[i].Load()
		for ; w != 0; w &= w - 1 {
			visited++
		}
	}
	if visited != total {
		t.Fatalf("visited %d of %d addresses: resume left gaps", visited, total)
	}
	if got := probed1.Load() + probed2; got != total {
		t.Fatalf("probe counts %d + %d = %d, want %d (exactly once)",
			probed1.Load(), probed2, got, total)
	}

	// And the walk really covered the population under study: every
	// ZMap-visible IPv4 deployment was among the probed addresses.
	covered := 0
	for _, d := range uni.Deployments {
		if d.Addr.Is4() && d.ZMapVisible {
			off := binary.BigEndian.Uint32(d.Addr.AsSlice()) - base
			if bits[off/32].Load()&(1<<(off%32)) == 0 {
				t.Fatalf("ZMap-visible deployment %v never probed", d.Addr)
			}
			covered++
		}
	}
	t.Logf("covered %d addresses (%d ZMap-visible deployments) across 2 runs, run 2 resumed %d units in",
		visited, covered, resumedAt)
}
