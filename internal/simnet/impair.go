package simnet

import (
	"net/netip"
	"sort"
	"time"

	"quicscan/internal/telemetry"
)

// Registry metrics bridging the impairment counters (the simnet_*
// family), so the exporter shows what the simulated Internet did to
// traffic while a scan ran against it.
var (
	mDelivered  = telemetry.Default().Counter("simnet_delivered_total")
	mLost       = telemetry.Default().Counter("simnet_lost_total")
	mCorrupted  = telemetry.Default().Counter("simnet_corrupted_total")
	mDuplicated = telemetry.Default().Counter("simnet_duplicated_total")
	mReordered  = telemetry.Default().Counter("simnet_reordered_total")
	mMTUDropped = telemetry.Default().Counter("simnet_mtu_dropped_total")

	// Datagrams that simnet_delivered_total counted (the link let them
	// through) but no reader will ever see: the receive queue was full,
	// or the socket closed while they were in flight.
	mRcvbufDropped = telemetry.Default().Counter("simnet_rcvbuf_dropped_total")
	mClosedDropped = telemetry.Default().Counter("simnet_closed_dropped_total")

	// Cumulative, unlike UDPSocketCount: a resolver that opens a socket
	// per query shows here after every one of them is closed again.
	mSocketsOpened = telemetry.Default().Counter("simnet_udp_sockets_opened_total")
)

// Profile describes the impairments of one network link: everything
// that can happen to a datagram between the sender's socket and the
// receiver's queue. The zero Profile is a perfect link (immediate,
// lossless delivery). All probabilities are in [0,1); all random
// decisions draw from the Network's seeded generator, so a scan over a
// given network is reproducible under its seed.
type Profile struct {
	// Loss is the probability that a datagram is silently dropped.
	Loss float64
	// Latency is the base one-way delivery delay.
	Latency time.Duration
	// Jitter is the maximum deviation added to Latency: each datagram
	// is delayed Latency + U(-Jitter, +Jitter), clamped at zero.
	Jitter time.Duration
	// Reorder is the probability that a datagram is held back an
	// extra ReorderDelay, letting later datagrams overtake it.
	Reorder float64
	// ReorderDelay is the hold-back applied to reordered datagrams.
	// Zero means Latency + 2*Jitter + 1ms, enough to overtake at
	// least one in-flight datagram under the profile's own timing.
	ReorderDelay time.Duration
	// Duplicate is the probability that a datagram is delivered twice
	// (the second copy with its own jitter draw).
	Duplicate float64
	// Corrupt is the probability that one random bit of the payload
	// is flipped in transit. QUIC's AEAD discards such packets, so
	// corruption manifests as loss plus wasted decrypt work.
	Corrupt float64
	// MTU, when non-zero, drops datagrams whose payload exceeds it —
	// the path-MTU black hole case (QUIC never fragments).
	MTU int
}

// ImpairmentStats counts what the network did to traffic. Delivered
// counts transmissions that reached a receive queue (duplicates count
// individually); the remaining counters classify interference.
//
// These are the facts of one Network, which is what chaos.Report sets
// against one scan's outcomes. The telemetry registry
// (simnet_delivered_total, simnet_lost_total, ...) holds the
// process-wide sums of the same events; it cannot answer for a single
// network.
type ImpairmentStats struct {
	Delivered  int
	Lost       int
	Corrupted  int
	Duplicated int
	Reordered  int
	MTUDropped int
}

// prefixProfile is one per-destination-prefix impairment entry.
type prefixProfile struct {
	prefix  netip.Prefix
	profile Profile
}

// SetProfile replaces the network's default link profile. It applies
// to traffic whose endpoints match no per-prefix profile.
func (n *Network) SetProfile(p Profile) {
	n.mu.Lock()
	n.profile = p
	n.mu.Unlock()
}

// SetPrefixProfile installs an impairment profile for all links to
// addresses in prefix (matched longest-prefix-first against the
// datagram's destination, then its source, so a lossy prefix impairs
// both directions of its flows). Re-installing a prefix replaces its
// profile.
func (n *Network) SetPrefixProfile(prefix netip.Prefix, p Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range n.prefixProfiles {
		if n.prefixProfiles[i].prefix == prefix {
			n.prefixProfiles[i].profile = p
			return
		}
	}
	n.prefixProfiles = append(n.prefixProfiles, prefixProfile{prefix, p})
	sort.SliceStable(n.prefixProfiles, func(i, j int) bool {
		return n.prefixProfiles[i].prefix.Bits() > n.prefixProfiles[j].prefix.Bits()
	})
}

// ImpairmentStats returns a snapshot of the impairment counters.
func (n *Network) ImpairmentStats() ImpairmentStats {
	n.stats.Lock()
	defer n.stats.Unlock()
	st := n.stats.impair
	st.Delivered = int(n.delivered.Load())
	return st
}

// profileForLocked resolves the link profile for a datagram: the most
// specific prefix containing the destination wins, then the most
// specific containing the source, then the network default. The caller
// holds n.mu.
func (n *Network) profileForLocked(to, from netip.AddrPort) Profile {
	for _, pp := range n.prefixProfiles {
		if pp.prefix.Contains(to.Addr()) {
			return pp.profile
		}
	}
	for _, pp := range n.prefixProfiles {
		if pp.prefix.Contains(from.Addr()) {
			return pp.profile
		}
	}
	return n.profile
}

// verdict is one datagram's fate under a profile.
type verdict struct {
	drop      bool
	corrupt   bool
	dup       bool
	reordered bool
	delay     time.Duration
	dupDelay  time.Duration
}

// judge rolls the dice for one datagram and updates the impairment
// counters. All draws come from the seeded generator under rngMu.
func (n *Network) judge(p Profile, size int) verdict {
	var v verdict
	if p.MTU > 0 && size > p.MTU {
		v.drop = true
		n.stats.Lock()
		n.stats.impair.MTUDropped++
		n.stats.Unlock()
		mMTUDropped.Inc()
		return v
	}
	if p == (Profile{}) {
		n.delivered.Add(1)
		mDelivered.Inc()
		return v
	}

	n.rngMu.Lock()
	if p.Loss > 0 && n.rng.Float64() < p.Loss {
		v.drop = true
	}
	if !v.drop {
		v.delay = p.Latency + n.jitterLocked(p.Jitter)
		if p.Reorder > 0 && n.rng.Float64() < p.Reorder {
			d := p.ReorderDelay
			if d == 0 {
				d = p.Latency + 2*p.Jitter + time.Millisecond
			}
			v.delay += d
			v.reordered = true
		}
		if p.Corrupt > 0 && n.rng.Float64() < p.Corrupt {
			v.corrupt = true
		}
		if p.Duplicate > 0 && n.rng.Float64() < p.Duplicate {
			v.dup = true
			v.dupDelay = p.Latency + n.jitterLocked(p.Jitter)
		}
	}
	n.rngMu.Unlock()

	n.stats.Lock()
	if v.drop {
		n.stats.impair.Lost++
	} else {
		n.delivered.Add(1)
		if v.reordered {
			n.stats.impair.Reordered++
		}
		if v.corrupt {
			n.stats.impair.Corrupted++
		}
		if v.dup {
			n.delivered.Add(1)
			n.stats.impair.Duplicated++
		}
	}
	n.stats.Unlock()
	if v.drop {
		mLost.Inc()
	} else {
		mDelivered.Inc()
		if v.reordered {
			mReordered.Inc()
		}
		if v.corrupt {
			mCorrupted.Inc()
		}
		if v.dup {
			mDelivered.Inc()
			mDuplicated.Inc()
		}
	}
	return v
}

// jitterLocked samples U(-j, +j). Caller holds rngMu.
func (n *Network) jitterLocked(j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	return time.Duration(n.rng.Int64N(int64(2*j+1))) - j
}

// corruptPayload flips one random bit in place.
func (n *Network) corruptPayload(b []byte) {
	if len(b) == 0 {
		return
	}
	n.rngMu.Lock()
	bit := n.rng.IntN(len(b) * 8)
	n.rngMu.Unlock()
	b[bit/8] ^= 1 << (bit % 8)
}
