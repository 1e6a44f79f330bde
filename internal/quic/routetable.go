package quic

import (
	"errors"
	"hash/maphash"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"quicscan/internal/quicwire"
)

// drainingPeriod is how long a retired connection ID keeps absorbing
// late packets before they count as routing drops, mirroring the
// draining state of RFC 9000, Section 10.2.
const drainingPeriod = 3 * time.Second

// maxDraining caps a table's draining set.
const maxDraining = 8192

var (
	errDuplicateCID = errors.New("quic: connection ID already registered")
	errRoutesClosed = errors.New("quic: route table closed")
)

// cidKey is a connection ID as a route key: fixed-size, pointer-free,
// and built on the stack from the ID bytes. RFC 9000 caps a connection
// ID at 20 bytes; a longer one (a version-independent long header may
// carry up to 255) has no key, so it is never registered and looking it
// up is a plain miss — never a truncation into another ID's key.
type cidKey struct {
	n uint8
	b [quicwire.MaxConnIDLen]byte
}

// keyOf builds the key of a connection ID; ok is false for an ID longer
// than any connection ID may be.
func keyOf(id []byte) (k cidKey, ok bool) {
	if len(id) > len(k.b) {
		return k, false
	}
	k.n = uint8(copy(k.b[:], id))
	return k, true
}

// routeEpoch anchors the table's clock: a tombstone's time is its
// offset from here on the monotonic clock, a plain integer, so the
// draining set holds nothing the collector has to scan.
var routeEpoch = time.Now()

func monoNow() time.Duration { return time.Since(routeEpoch) }

// drainSeed keys drainHash. A peer that cannot predict the hash cannot
// choose connection IDs that collide with a tombstone.
var drainSeed = maphash.MakeSeed()

// drainHash is the draining set's key for a connection ID: a 64-bit
// keyed hash, in place of the 21-byte cidKey. Two IDs with one hash
// share a tombstone, so an ID that was never retired reads as late
// when its hash meets one of the at most maxDraining (2¹³) tombstones:
// at most 2¹³ × 2⁻⁶⁴ = 2⁻⁵¹ per datagram that misses the live routes.
// Such a datagram is absorbed as tail traffic (a late packet, or a
// draining_initial drop) instead of being dropped, answered or starting
// a connection.
func drainHash(id []byte) uint64 { return maphash.Bytes(drainSeed, id) }

// routeTable is the datagram demux state of one endpoint (a Transport's
// client connections or a Listener's server connections): live routes
// by connection ID, the client's remote-address fallback, and key-only
// tombstones for the IDs of closed connections. The zero value is ready
// to use; its maps are made at first write (reads and deletes on nil
// maps are safe).
//
// A connection's routes are its source ID, the other IDs it issued
// (c.localCIDs), on a server the client's original destination ID, and
// on a client its active address (c.activeAP). The table stores no copy
// of them: retire rebuilds each key from the Conn, with c.mu held, as
// every call of a connection into its endpoint is made. Lock order is
// c.mu, then mu; mu is never held while calling into a Conn.
//
// The draining set keeps its tombstones in retirement order so expiry
// is an amortized O(1) pop from the front (a periodic full-map sweep
// goes quadratic under scanner churn: with tens of thousands of
// short-lived connections per draining period, every sweep scans
// entries that are almost all too young to remove).
type routeTable struct {
	mu       sync.Mutex
	conns    map[cidKey]*Conn         // local CID -> connection
	byAddr   map[netip.AddrPort]*Conn // remote address -> connection (fallback)
	draining drainSet
	active   int
	closed   bool

	// clock, when non-zero, is the table's time in place of monoNow.
	// Tests set it and move it on to expire tombstones without waiting
	// out drainingPeriod; nothing else does.
	clock atomic.Int64
}

// now is the table's time: monoNow, unless a test has taken the clock.
func (rt *routeTable) now() time.Duration {
	if t := rt.clock.Load(); t != 0 {
		return time.Duration(t)
	}
	return monoNow()
}

// register installs c's primary route under its source ID and, on a
// client, the address fallback (never displacing another connection's).
// Holding mu across the inserts orders registration against close:
// either register sees closed, or close's sweep sees c.
func (rt *routeTable) register(c *Conn) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return errRoutesClosed
	}
	if !rt.insertLocked(c.scid, c) {
		return errDuplicateCID
	}
	if c.isClient {
		rt.insertAddrLocked(c.activeAP, c)
	}
	rt.active++
	return nil
}

func (rt *routeTable) insertLocked(id []byte, c *Conn) bool {
	k, ok := keyOf(id)
	if !ok {
		return false
	}
	if _, dup := rt.conns[k]; dup {
		return false
	}
	if rt.conns == nil {
		rt.conns = make(map[cidKey]*Conn)
	}
	rt.conns[k] = c
	return true
}

func (rt *routeTable) insertAddrLocked(ap netip.AddrPort, c *Conn) {
	if _, taken := rt.byAddr[ap]; taken || !ap.IsValid() {
		return
	}
	if rt.byAddr == nil {
		rt.byAddr = make(map[netip.AddrPort]*Conn)
	}
	rt.byAddr[ap] = c
}

func (rt *routeTable) removeAddrLocked(ap netip.AddrPort, c *Conn) {
	if rt.byAddr[ap] == c {
		delete(rt.byAddr, ap)
	}
}

// addConnID routes an additional connection ID to c. It fails on
// collision (the caller simply issues fewer IDs), for an ID too long to
// be one, or after close.
func (rt *routeTable) addConnID(c *Conn, id []byte) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return !rt.closed && rt.insertLocked(id, c)
}

// retire removes every route of a closing connection and parks its
// connection IDs as tombstones, so late packets on any of them are
// absorbed as tail traffic instead of being misread as drops, new
// connections or stateless-reset triggers. Nothing in the table
// references c afterwards. It reports whether c was still registered,
// and how many older tombstones the cap evicted to make room.
func (rt *routeTable) retire(c *Conn) (ok bool, evicted int) {
	now := rt.now()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ok, evicted = rt.parkLocked(c.scid, c, now); !ok {
		return false, 0
	}
	if c.isClient {
		rt.removeAddrLocked(c.activeAP, c)
	} else {
		_, n := rt.parkLocked(c.origDcid, c, now)
		evicted += n
	}
	for _, lc := range c.localCIDs {
		if lc.seq != 0 { // sequence 0 is the source ID, parked above
			_, n := rt.parkLocked(lc.id, c, now)
			evicted += n
		}
	}
	rt.active--
	return true, evicted
}

// park retires one of c's connection IDs, returning how many tombstones
// the cap evicted.
func (rt *routeTable) park(c *Conn, id []byte) (evicted int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, evicted = rt.parkLocked(id, c, rt.now())
	return evicted
}

// parkLocked moves id from the live routes to the draining set if c
// owns it, reporting whether it did and how many tombstones the cap
// evicted.
func (rt *routeTable) parkLocked(id []byte, c *Conn, now time.Duration) (ok bool, evicted int) {
	k, ok := keyOf(id)
	if !ok || rt.conns[k] != c {
		return false, 0
	}
	delete(rt.conns, k)
	return true, rt.drainLocked(drainHash(id), now)
}

// lookup resolves a destination connection ID to its connection. A nil
// connection with late set means the ID was retired within the
// draining period. The key is built on the stack, so no per-packet key
// is allocated.
func (rt *routeTable) lookup(dstID []byte) (c *Conn, late bool) {
	k, ok := keyOf(dstID)
	if !ok {
		return nil, false
	}
	rt.mu.Lock()
	c = rt.conns[k]
	var parkedAt time.Duration
	if c == nil {
		parkedAt, late = rt.draining.get(drainHash(dstID))
	}
	rt.mu.Unlock()
	if late {
		late = rt.now()-parkedAt <= drainingPeriod
	}
	return c, late
}

// lookupAddr resolves the remote-address fallback route.
func (rt *routeTable) lookupAddr(ap netip.AddrPort) *Conn {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.byAddr[ap]
}

// activeConns is the number of registered connections.
func (rt *routeTable) activeConns() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.active
}

// close refuses further registrations and returns the connections
// still routed (one entry per route, so a connection may repeat) for
// the owner to abort — after this returns, with no table lock held.
// ok is false when the table was already closed.
func (rt *routeTable) close() (conns []*Conn, ok bool) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, false
	}
	rt.closed = true
	rt.mu.Unlock()
	return rt.liveConns(), true
}

func (rt *routeTable) liveConns() []*Conn {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var conns []*Conn
	for _, c := range rt.conns {
		conns = append(conns, c)
	}
	return conns
}

// drainLocked adds a retired ID's hash to the draining set and pops
// expired entries, returning how many live tombstones the cap evicted.
func (rt *routeTable) drainLocked(h uint64, now time.Duration) (evicted int) {
	rt.draining.push(h, now)
	return rt.expireDrainingLocked(now)
}

// expireDrainingLocked pops expired (or over-cap) entries from the
// front of the retirement-ordered set. Entries past the cap are evicted
// early (their late packets count as drops rather than late packets),
// bounding memory when connections churn faster than the draining
// period expires them; it returns how many. Amortized O(1) per retire.
func (rt *routeTable) expireDrainingLocked(now time.Duration) (evicted int) {
	d := &rt.draining
	for d.len() > 0 {
		expired := now-d.oldest().at > drainingPeriod
		if !expired && d.len() <= maxDraining {
			break
		}
		// A hash can reappear in the set only if the same ID was
		// retired twice, or two IDs share it; only the newest entry of a
		// hash is a tombstone to count.
		if d.pop() && !expired {
			evicted++
		}
	}
	d.shrink()
	return evicted
}
