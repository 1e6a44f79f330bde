package quic

import "time"

// drainEntry is one tombstone: the hash of a retired connection ID
// (drainHash) and when it was parked, 16 bytes.
type drainEntry struct {
	h  uint64
	at time.Duration // on the table's clock
}

// drainKeepMin is the capacity below which the draining set is never
// made smaller: a table with a handful of tombstones keeps its few
// slots instead of remaking them on every retirement.
const drainKeepMin = 16

// drainSet is a route table's draining set: its tombstones in a ring,
// oldest first, so that expiry and the cap pop from the front, and an
// index over the ring for lookup. The index is open addressing with
// linear probing on the hash, one 2-byte ring position per slot, at
// most three quarters full; a tombstone costs its 16-byte ring entry
// and 2 to 6 bytes of index. Both are remade together, at a quarter
// more than the live count when the ring is full and at twice it once
// fewer than a quarter of the ring is live, so what the set holds
// follows the tombstones alive now rather than its peak. A ring
// position fits the index's 2 bytes while the ring stays under 65,535
// entries, which maxDraining (8,192) keeps it far below. The zero value
// is an empty set. Every method runs under the table's lock.
type drainSet struct {
	ring    []drainEntry // len is the capacity
	head, n int          // the oldest entry is ring[head]; n are live
	idx     []uint16     // 0 is an empty slot, p+1 is ring[p]
}

// The longest ring push makes, for a table at maxDraining, must index
// in 2 bytes: this does not compile once it would not.
const _ = uint16(maxDraining + maxDraining/4 + drainKeepMin)

// len is the number of live tombstones.
func (d *drainSet) len() int { return d.n }

// get returns when h was last parked; ok is false when it is not in
// the set.
func (d *drainSet) get(h uint64) (at time.Duration, ok bool) {
	if d.n == 0 {
		return 0, false
	}
	if i, found := d.slot(h); found {
		return d.ring[d.idx[i]-1].at, true
	}
	return 0, false
}

// slot is the index slot that holds h, or the empty slot where h would
// go.
func (d *drainSet) slot(h uint64) (i int, found bool) {
	mask := len(d.idx) - 1
	for i = int(h) & mask; d.idx[i] != 0; i = (i + 1) & mask {
		if d.ring[d.idx[i]-1].h == h {
			return i, true
		}
	}
	return i, false
}

// push parks h at time at as the newest tombstone. A hash already in
// the set is now found at this entry; its older one stays in the ring
// until it is popped.
func (d *drainSet) push(h uint64, at time.Duration) {
	if d.n == len(d.ring) {
		d.resize(d.n + d.n/4 + drainKeepMin)
	}
	p := (d.head + d.n) % len(d.ring)
	d.ring[p] = drainEntry{h: h, at: at}
	d.n++
	i, _ := d.slot(h)
	d.idx[i] = uint16(p + 1)
}

// oldest is the entry pop would remove; the set must not be empty.
func (d *drainSet) oldest() drainEntry { return d.ring[d.head] }

// pop removes the oldest entry and reports whether it was its hash's
// newest, so that the hash left the set.
func (d *drainSet) pop() (last bool) {
	p := d.head
	d.head = (d.head + 1) % len(d.ring)
	d.n--
	if i, found := d.slot(d.ring[p].h); found && int(d.idx[i]-1) == p {
		d.unindex(i)
		return true
	}
	return false
}

// unindex empties slot i, moving back the entries of its probe run
// that the gap would otherwise hide from their home slot.
func (d *drainSet) unindex(i int) {
	mask := len(d.idx) - 1
	for j := (i + 1) & mask; d.idx[j] != 0; j = (j + 1) & mask {
		home := int(d.ring[d.idx[j]-1].h) & mask
		if (j-home)&mask >= (j-i)&mask {
			d.idx[i] = d.idx[j]
			i = j
		}
	}
	d.idx[i] = 0
}

// shrink remakes the set at twice its live count once fewer than a
// quarter of its ring is live. The copy is paid for by the three
// quarters of the ring that were popped before it, so it is amortized
// O(1) per pop, as growth is per push.
func (d *drainSet) shrink() {
	if c := len(d.ring); c > drainKeepMin && d.n < c/4 {
		d.resize(max(drainKeepMin, 2*d.n))
	}
}

// resize remakes the ring with capacity c, oldest entry first, and the
// index for it.
func (d *drainSet) resize(c int) {
	ring := make([]drainEntry, c)
	for k := 0; k < d.n; k++ {
		ring[k] = d.ring[(d.head+k)%len(d.ring)]
	}
	slots := 1
	for slots < c+c/3+1 {
		slots <<= 1
	}
	d.ring, d.head, d.idx = ring, 0, make([]uint16, slots)
	for k := 0; k < d.n; k++ { // oldest first: a hash ends at its newest entry
		i, _ := d.slot(ring[k].h)
		d.idx[i] = uint16(k + 1)
	}
}
