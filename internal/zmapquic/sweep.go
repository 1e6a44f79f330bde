package zmapquic

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"net/netip"
	"sort"
)

// Sweep enumerates the addresses of a set of IPv4 prefixes in a
// pseudorandom order, the way ZMap permutes the address space so that
// probes to any one network are spread over the whole scan (a core
// ethical measure in the paper's Appendix A). The permutation is a
// four-round Feistel network over the index space, keyed by seed —
// a bijection, so every address is visited exactly once.
type Sweep struct {
	seed     uint64
	prefixes []netip.Prefix
	starts   []uint64 // cumulative address counts
	total    uint64
	size     uint64 // permutation domain: smallest power of 4 >= total
	halfBits uint
	keys     [4]uint32
}

// NewSweep builds a randomized sweep over the given IPv4 prefixes.
// Overlapping or duplicate prefixes are coalesced so every address is
// visited exactly once — without this, an input like 10.0.0.0/24 plus
// 10.0.0.128/25 would probe the overlapped quarter twice, violating
// the one-probe-per-address property the permutation exists for.
func NewSweep(seed uint64, prefixes []netip.Prefix) *Sweep {
	s := &Sweep{seed: seed, prefixes: normalizePrefixes(prefixes)}
	for _, p := range s.prefixes {
		s.starts = append(s.starts, s.total)
		s.total += uint64(1) << (32 - p.Bits())
	}
	// Domain must be a power of two with an even bit count for the
	// balanced Feistel halves.
	bits := uint(2)
	for uint64(1)<<bits < s.total {
		bits += 2
	}
	s.size = uint64(1) << bits
	s.halfBits = bits / 2
	sum := sha256.Sum256(binary.BigEndian.AppendUint64(nil, seed))
	for i := range s.keys {
		s.keys[i] = binary.BigEndian.Uint32(sum[4*i:])
	}
	return s
}

// Total returns the number of addresses in the sweep.
func (s *Sweep) Total() uint64 { return s.total }

// Seed returns the permutation seed the sweep was built with.
func (s *Sweep) Seed() uint64 { return s.seed }

// Prefixes returns the normalized (masked, de-overlapped, sorted)
// prefix list the sweep enumerates. The slice is a copy; equal
// normalized lists plus equal seeds mean identical sweeps, which is
// how the campaign layer fingerprints a checkpoint's identity.
func (s *Sweep) Prefixes() []netip.Prefix {
	return append([]netip.Prefix(nil), s.prefixes...)
}

// DomainSize returns the Feistel permutation domain: the smallest
// power of four at or above Total. Positions in [0, DomainSize) map
// through the permutation onto addresses, with cycle-walk skips for
// positions whose permuted index falls outside the target space.
// Sharding partitions this domain, not the address space: shard k of
// N walks positions congruent to k mod N, and because the permutation
// is a bijection the N walks together visit every address exactly
// once.
func (s *Sweep) DomainSize() uint64 { return s.size }

// AddrAtPosition maps a raw permutation-domain position to its swept
// address. ok is false for positions outside the domain and for
// cycle-walk skips; callers iterating the domain simply move on. The
// mapping is pure: equal (seed, prefixes, position) triples always
// yield the same address, which makes a position cursor a complete
// record of a shard's progress.
func (s *Sweep) AddrAtPosition(x uint64) (netip.Addr, bool) {
	if x >= s.size {
		return netip.Addr{}, false
	}
	idx := s.permute(x)
	if idx >= s.total {
		return netip.Addr{}, false
	}
	return s.addrAt(idx)
}

// permute applies the Feistel network to an index in [0, size).
func (s *Sweep) permute(x uint64) uint64 {
	mask := uint64(1)<<s.halfBits - 1
	l, r := x>>s.halfBits, x&mask
	for _, k := range s.keys {
		f := uint64(round(uint32(r), k)) & mask
		l, r = r, l^f
	}
	return l<<s.halfBits | r
}

func round(r, k uint32) uint32 {
	x := r*0x9e3779b9 + k
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	return x
}

// normalizePrefixes masks, sorts, and de-overlaps IPv4 prefixes.
// Two valid prefixes either nest or are disjoint, so after sorting by
// base address (ties broken shortest-mask first) a contained prefix
// always follows its container; tracking the running covered end is
// enough to drop it.
func normalizePrefixes(prefixes []netip.Prefix) []netip.Prefix {
	masked := make([]netip.Prefix, 0, len(prefixes))
	for _, p := range prefixes {
		if !p.IsValid() || !p.Addr().Is4() {
			continue
		}
		masked = append(masked, p.Masked())
	}
	sort.Slice(masked, func(i, j int) bool {
		bi := binary.BigEndian.Uint32(masked[i].Addr().AsSlice())
		bj := binary.BigEndian.Uint32(masked[j].Addr().AsSlice())
		if bi != bj {
			return bi < bj
		}
		return masked[i].Bits() < masked[j].Bits()
	})
	out := masked[:0]
	coveredEnd := int64(-1) // last address already covered, inclusive
	for _, p := range masked {
		base := int64(binary.BigEndian.Uint32(p.Addr().AsSlice()))
		end := base + int64(1)<<(32-p.Bits()) - 1
		if end <= coveredEnd {
			continue // contained in (or equal to) an earlier prefix
		}
		out = append(out, p)
		coveredEnd = end
	}
	return out
}

// addrAt maps a linear index to an address. ok is false for an index
// outside the sweep or an offset that would escape its prefix — the
// uint32 address arithmetic must never be allowed to wrap past
// 255.255.255.255 into an address the operator did not authorize.
func (s *Sweep) addrAt(idx uint64) (netip.Addr, bool) {
	if idx >= s.total || len(s.prefixes) == 0 {
		return netip.Addr{}, false
	}
	// Binary search over cumulative starts.
	lo, hi := 0, len(s.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.starts[mid] <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	p := s.prefixes[lo]
	off := idx - s.starts[lo]
	if off >= uint64(1)<<(32-p.Bits()) {
		return netip.Addr{}, false
	}
	base := uint64(binary.BigEndian.Uint32(p.Masked().Addr().AsSlice()))
	sum := base + off
	if sum > math.MaxUint32 {
		return netip.Addr{}, false
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(sum))
	return netip.AddrFrom4(b), true
}
