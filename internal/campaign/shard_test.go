package campaign

import (
	"context"
	"encoding/binary"
	"math/rand/v2"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"quicscan/internal/zmapquic"
)

// shardCounts counts how often each prefix set entry is visited by
// walking all N residue classes through the sweep's position domain —
// the exact iteration the engine performs per shard.
func shardWalkCounts(sw *zmapquic.Sweep, shards int) map[netip.Addr]int {
	counts := make(map[netip.Addr]int)
	for k := 0; k < shards; k++ {
		for x := uint64(k); x < sw.DomainSize(); x += uint64(shards) {
			if addr, ok := sw.AddrAtPosition(x); ok {
				counts[addr]++
			}
		}
	}
	return counts
}

// expectedAddrs enumerates the address set of a prefix list
// (set-union semantics, matching the sweep's prefix de-overlapping).
func expectedAddrs(t *testing.T, prefixes []netip.Prefix) map[netip.Addr]bool {
	t.Helper()
	want := make(map[netip.Addr]bool)
	for _, p := range prefixes {
		if !p.Addr().Is4() {
			continue
		}
		base := binary.BigEndian.Uint32(p.Masked().Addr().AsSlice())
		n := uint64(1) << (32 - p.Bits())
		for i := uint64(0); i < n; i++ {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], base+uint32(i))
			want[netip.AddrFrom4(b)] = true
		}
	}
	return want
}

// TestShardDisjointnessCompleteness is the shard-math property test:
// for edge-case and randomized prefix sets, and every shard count in
// {1,2,3,8,16}, the union of the N residue-class walks must equal the
// full sweep exactly once — disjoint (no address in two shards, no
// address twice in one) and complete (no address missed). The fixed
// sets pin the addrAt wrap-guard edges: prefixes touching
// 255.255.255.255, 0.0.0.0, and overlapping inputs.
func TestShardDisjointnessCompleteness(t *testing.T) {
	fixed := [][]netip.Prefix{
		{netip.MustParsePrefix("255.255.255.0/24")},
		{netip.MustParsePrefix("255.255.255.252/30"), netip.MustParsePrefix("0.0.0.0/30")},
		{netip.MustParsePrefix("255.255.0.0/20"), netip.MustParsePrefix("255.255.255.128/25")},
		{netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.0.128/25")}, // overlap
		{netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.0.0/24")},   // duplicate
		{netip.MustParsePrefix("192.0.2.0/28")},
	}

	rng := rand.New(rand.NewPCG(42, 0))
	randomSet := func() []netip.Prefix {
		n := 1 + rng.IntN(5)
		ps := make([]netip.Prefix, 0, n)
		for i := 0; i < n; i++ {
			bits := 22 + rng.IntN(9) // /22../30, up to 1024 addrs each
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], rng.Uint32())
			ps = append(ps, netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked())
		}
		return ps
	}
	sets := fixed
	for i := 0; i < 6; i++ {
		sets = append(sets, randomSet())
	}

	for si, prefixes := range sets {
		want := expectedAddrs(t, prefixes)
		for _, shards := range []int{1, 2, 3, 8, 16} {
			sw := zmapquic.NewSweep(uint64(si)+1, prefixes)
			if got := sw.Total(); got != uint64(len(want)) {
				t.Fatalf("set %d: sweep total %d, want %d", si, got, len(want))
			}
			counts := shardWalkCounts(sw, shards)
			if len(counts) != len(want) {
				t.Errorf("set %d shards=%d: %d distinct addresses visited, want %d",
					si, shards, len(counts), len(want))
			}
			for addr := range want {
				if c := counts[addr]; c != 1 {
					t.Fatalf("set %d shards=%d: %v visited %d times, want exactly 1", si, shards, addr, c)
				}
			}
			for addr := range counts {
				if !want[addr] {
					t.Fatalf("set %d shards=%d: %v visited but outside the prefix set", si, shards, addr)
				}
			}
		}
	}
}

// TestEngineCoversSweepExactlyOnce runs the same property through the
// real engine — leased shards, concurrent workers, null sink — rather
// than the raw position walk.
func TestEngineCoversSweepExactlyOnce(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("10.1.0.0/20"),
		netip.MustParsePrefix("255.255.255.0/26"),
	}
	sw := zmapquic.NewSweep(7, prefixes)

	var mu sync.Mutex
	counts := make(map[netip.Addr]int)
	eng, err := New(Config{
		Sweep:  sw,
		Shards: 8,
		Probe: func(_ context.Context, addr netip.Addr) error {
			mu.Lock()
			counts[addr]++
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	want := expectedAddrs(t, prefixes)
	if len(counts) != len(want) {
		t.Fatalf("engine visited %d addresses, want %d", len(counts), len(want))
	}
	for addr, c := range counts {
		if c != 1 {
			t.Fatalf("%v probed %d times", addr, c)
		}
		if !want[addr] {
			t.Fatalf("%v probed but outside the prefix set", addr)
		}
	}
	p := eng.Progress()
	if p.ShardsDone != 8 || p.Probes != uint64(len(want)) {
		t.Fatalf("progress %+v, want 8 shards done and %d probes", p, len(want))
	}
}

// TestEngineRunsOneUnitPerAddress: every unit of a shard's walk is an
// address, so the engine calls Probe exactly Total times, and each
// shard's cursor ends at the count of positions in its residue class:
// one step per probe. Totals that are not a power of four are where a
// walk with skips would show.
func TestEngineRunsOneUnitPerAddress(t *testing.T) {
	for _, prefixes := range [][]netip.Prefix{
		{netip.MustParsePrefix("10.0.0.0/31"), netip.MustParsePrefix("10.9.0.0/32")},
		{netip.MustParsePrefix("10.0.0.0/21"), netip.MustParsePrefix("192.0.2.9/32")},
		{netip.MustParsePrefix("10.1.0.0/20"), netip.MustParsePrefix("10.2.0.0/24")},
	} {
		sw := zmapquic.NewSweep(3, prefixes)
		total := sw.Total()
		for _, shards := range []int{1, 3, 8} {
			var calls atomic.Uint64
			eng, err := New(Config{
				Sweep:   sw,
				Shards:  shards,
				Workers: 2,
				Probe: func(context.Context, netip.Addr) error {
					calls.Add(1)
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != total {
				t.Errorf("total %d, %d shards: Probe called %d times", total, shards, got)
			}
			if p := eng.Progress(); p.Units != total || p.Probes != total {
				t.Errorf("total %d, %d shards: progress %+v, want %d units and probes", total, shards, p, total)
			}
			for _, st := range eng.shards {
				want := (total + uint64(shards) - 1 - uint64(st.id)) / uint64(shards)
				if got := st.cursor.Load(); got != want {
					t.Errorf("total %d, %d shards: shard %d cursor %d, want %d", total, shards, st.id, got, want)
				}
			}
		}
	}
}

// TestShardStateFillsACacheLine: the allocator aligns a 64-byte object
// to 64 bytes, so two workers' cursors never share a line. A field added
// to shardState has to come out of its padding.
func TestShardStateFillsACacheLine(t *testing.T) {
	if got := unsafe.Sizeof(shardState{}); got != 64 {
		t.Errorf("shardState is %d bytes, want 64", got)
	}
}
