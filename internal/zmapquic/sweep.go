package zmapquic

import (
	"crypto/sha256"
	"encoding/binary"
	"net/netip"
	"sort"
)

// Sweep enumerates the addresses of a set of IPv4 prefixes in a
// pseudorandom order, the way ZMap permutes the address space so that
// probes to any one network are spread over the whole scan (a core
// ethical measure in the paper's Appendix A). The permutation is a
// four-round Feistel network keyed by seed over the smallest power of
// two at or above the address count, cycle-walked down to that count:
// a bijection on [0, Total), so every address is visited exactly once
// and every position is an address.
type Sweep struct {
	seed     uint64
	prefixes []netip.Prefix
	starts   []uint64 // cumulative address counts
	bases    []uint32 // each prefix's first address
	total    uint64

	// jump[j] is the prefix holding index j<<jumpShift; jump[j+1] bounds
	// the prefixes any index of that bucket can fall in.
	jump      []uint32
	jumpShift uint

	// The Feistel halves: an index is hi<<loBits | lo, hi the wider by
	// one bit when the domain's bit count is odd.
	loBits         uint
	hiMask, loMask uint64
	keys           [4]uint32
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
		s.bases = append(s.bases, binary.BigEndian.Uint32(p.Addr().AsSlice()))
		s.total += uint64(1) << (32 - p.Bits())
	}
	if n := uint64(len(s.prefixes)); n > 0 {
		for s.total>>s.jumpShift > 4*n {
			s.jumpShift++
		}
		s.jump = make([]uint32, (s.total-1)>>s.jumpShift+2)
		i := 0
		for j := range s.jump {
			at := uint64(j) << s.jumpShift
			for i+1 < len(s.starts) && s.starts[i+1] <= at {
				i++
			}
			s.jump[j] = uint32(i)
		}
	}
	bits := uint(0)
	for uint64(1)<<bits < s.total {
		bits++
	}
	s.loBits = bits / 2
	s.loMask = uint64(1)<<s.loBits - 1
	s.hiMask = uint64(1)<<(bits-s.loBits) - 1
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

// DomainSize returns the number of positions AddrAtPosition maps, which
// is Total: every position is an address. Sharding partitions the
// positions: shard k of N walks those congruent to k mod N, and because
// the mapping is a bijection the N walks together visit every address
// exactly once.
func (s *Sweep) DomainSize() uint64 { return s.total }

// AddrAtPosition maps a position in [0, Total) to its swept address; ok
// is false for a position outside it. The Feistel network permutes the
// power-of-two domain, and an image at or past Total is permuted again
// until it falls below: a cycle walk, which stays a bijection on
// [0, Total). The mapping is pure: equal (seed, prefixes, position)
// triples always yield the same address, which makes a position cursor
// a complete record of a shard's progress.
func (s *Sweep) AddrAtPosition(x uint64) (netip.Addr, bool) {
	if x >= s.total {
		return netip.Addr{}, false
	}
	idx := s.permute(x)
	for idx >= s.total {
		idx = s.permute(idx)
	}
	return s.addrAt(idx)
}

// permute applies the Feistel network to an index in the power-of-two
// domain. With unequal halves each round swaps their widths, so an even
// number of rounds ends on the widths it started with.
func (s *Sweep) permute(x uint64) uint64 {
	l, r := x>>s.loBits, x&s.loMask
	lm, rm := s.hiMask, s.loMask
	for _, k := range s.keys {
		l, r = r, l^uint64(round(uint32(r), k))&lm
		lm, rm = rm, lm
	}
	return l<<s.loBits | r
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
	if idx >= s.total {
		return netip.Addr{}, false
	}
	j := idx >> s.jumpShift
	lo, hi := int(s.jump[j]), int(s.jump[j+1])
	for lo < hi { // only when a prefix starts inside the bucket
		mid := (lo + hi + 1) / 2
		if s.starts[mid] <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	off := idx - s.starts[lo]
	if off>>(32-s.prefixes[lo].Bits()) != 0 {
		return netip.Addr{}, false
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], s.bases[lo]+uint32(off))
	return netip.AddrFrom4(b), true
}
