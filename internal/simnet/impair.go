package simnet

import (
	"encoding/binary"
	"net/netip"
	"sort"
	"time"

	"quicscan/internal/telemetry"
)

// fate is one thing the network does to a datagram. Each is counted in
// the network's fates, which the registry's simnet_* family reads, so
// the exporter shows what the simulated Internet did to traffic while a
// scan ran against it.
type fate int

const (
	fateDelivered fate = iota
	fateLost
	fateCorrupted
	fateDuplicated
	fateReordered
	fateMTUDropped
	numFates
)

var fateMetrics = [numFates]*telemetry.Counter{
	telemetry.Default().Counter("simnet_delivered_total"),
	telemetry.Default().Counter("simnet_lost_total"),
	telemetry.Default().Counter("simnet_corrupted_total"),
	telemetry.Default().Counter("simnet_duplicated_total"),
	telemetry.Default().Counter("simnet_reordered_total"),
	telemetry.Default().Counter("simnet_mtu_dropped_total"),
}

var (
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
// lossless delivery). Probabilities are in [0,1]: 0 never happens, 1
// always does. A datagram's fate is a function of the network's Seed,
// its link (source and destination address), its index among the
// datagrams its socket has sent to that destination, and its size;
// other flows and the order goroutines run in do not enter into it.
type Profile struct {
	// Loss is the probability that a datagram is silently dropped.
	Loss float64
	// Latency is the base one-way delivery delay.
	Latency time.Duration
	// Jitter is the maximum deviation added to Latency: each datagram
	// is delayed Latency + U(-Jitter, +Jitter), clamped at zero.
	Jitter time.Duration
	// Reorder is the probability that a datagram is held back an extra
	// Latency + 2*Jitter + 1ms, enough for at least one in-flight
	// datagram to overtake it under the profile's own timing.
	Reorder float64
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
// These are the facts of one Network, which the impaired scans of a
// universe set against their outcomes, and the only count of them: the
// registry's simnet_delivered_total, simnet_lost_total, ... read them.
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
	n.perfect = n.perfectLocked()
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
	defer func() { n.perfect = n.perfectLocked() }()
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

// perfectLocked reports whether no profile impairs any link. The caller
// holds n.mu.
func (n *Network) perfectLocked() bool {
	for _, pp := range n.prefixProfiles {
		if pp.profile != (Profile{}) {
			return false
		}
	}
	return n.profile == Profile{}
}

// ImpairmentStats returns a snapshot of the impairment counters.
func (n *Network) ImpairmentStats() ImpairmentStats {
	fates := n.fates()
	c := func(f fate) int { return int(fates[f]) }
	return ImpairmentStats{Delivered: c(fateDelivered), Lost: c(fateLost), Corrupted: c(fateCorrupted),
		Duplicated: c(fateDuplicated), Reordered: c(fateReordered), MTUDropped: c(fateMTUDropped)}
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

// fateKey names one datagram: the network's seed, the link it crosses,
// its index among the datagrams its socket has sent to that
// destination, and for a synthetic endpoint's answer, the answer's
// position among the answers to that datagram, plus one.
type fateKey struct {
	seed         uint64
	from, to     netip.AddrPort
	index, reply uint64
}

// verdict is one datagram's fate under a profile.
type verdict struct {
	fates           [numFates]uint8 // how often each befell the datagram
	bit             int             // the payload bit corruption flipped
	delay, dupDelay time.Duration
}

func (v verdict) has(f fate) bool { return v.fates[f] > 0 }

// delivered is a perfect link's verdict on every datagram.
var delivered = verdict{fates: [numFates]uint8{fateDelivered: 1}}

// judge decides the fate of the datagram k names, size bytes long, under
// p, and reads nothing else. Each decision takes a numbered draw of its
// own, so changing one probability leaves the other decisions as they were.
func judge(p Profile, k *fateKey, size int) (v verdict) {
	if p.MTU > 0 && size > p.MTU {
		v.fates[fateMTUDropped] = 1
		return v
	}
	d := k.draws()
	if d.chance(0, p.Loss) {
		v.fates[fateLost] = 1
		return v
	}
	v.fates[fateDelivered] = 1
	v.delay = p.Latency + d.jitter(1, p.Jitter)
	if d.chance(2, p.Reorder) {
		v.delay += p.Latency + 2*p.Jitter + time.Millisecond
		v.fates[fateReordered] = 1
	}
	if size > 0 && d.chance(3, p.Corrupt) {
		v.fates[fateCorrupted] = 1
		v.bit = int(d.at(4) % uint64(8*size))
	}
	if d.chance(5, p.Duplicate) {
		v.fates[fateDelivered], v.fates[fateDuplicated] = 2, 1
		v.dupDelay = p.Latency + d.jitter(6, p.Jitter)
	}
	return v
}

// flip applies a corrupt verdict to b, the network's copy.
func (v verdict) flip(b []byte) {
	if v.has(fateCorrupted) {
		b[v.bit/8] ^= 1 << (v.bit % 8)
	}
}

// count records v: each fate in the row's counts.
func (row *trafficRow) count(v verdict) {
	for f, times := range v.fates {
		if times > 0 {
			row.fates[f].Add(int64(times))
		}
	}
}

// fates sums the rows' fate counts.
func (n *Network) fates() (sum [numFates]int64) {
	for i := range n.traffic {
		for f := range sum {
			sum[f] += n.traffic[i].fates[f].Load()
		}
	}
	return sum
}

func (n *Network) readCounts(rd *telemetry.Reading) {
	for f, times := range n.fates() {
		rd.Count(fateMetrics[f], uint64(times))
	}
}

// draws are the random numbers one datagram's verdict is made of: draw
// i is a function of the datagram's key and i alone.
type draws uint64

func (k *fateKey) draws() draws {
	h := k.seed
	for _, ap := range [2]netip.AddrPort{k.from, k.to} {
		a := ap.Addr().As16()
		h = mix64(h ^ binary.LittleEndian.Uint64(a[:8]))
		h = mix64(h ^ binary.LittleEndian.Uint64(a[8:]))
		h = mix64(h ^ uint64(ap.Port()))
	}
	return draws(mix64(mix64(h^k.index) ^ k.reply))
}

// at returns draw i, a splitmix64 output.
func (d draws) at(i uint64) uint64 { return mix64(uint64(d) + (i+1)*0x9e3779b97f4a7c15) }

// chance reports whether draw i falls under probability p: never when
// p is 0, always when it is 1.
func (d draws) chance(i uint64, p float64) bool {
	return p > 0 && float64(d.at(i)>>11)/(1<<53) < p
}

// jitter maps draw i onto U(-j, +j).
func (d draws) jitter(i uint64, j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	return time.Duration(d.at(i)%uint64(2*j+1)) - j
}

// mix64 is splitmix64's finaliser.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
