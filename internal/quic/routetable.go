package quic

import (
	"errors"
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

// drainEntry records one retired connection ID and when it was parked,
// queued in retirement order for incremental expiry.
type drainEntry struct {
	key cidKey
	at  time.Duration // on routeEpoch's clock
}

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
// drainQ keeps the draining keys in retirement order so expiry is an
// amortized O(1) pop from the front (a periodic full-map sweep goes
// quadratic under scanner churn: with tens of thousands of short-lived
// connections per draining period, every sweep scans entries that are
// almost all too young to remove).
type routeTable struct {
	mu        sync.Mutex
	conns     map[cidKey]*Conn         // local CID -> connection
	byAddr    map[netip.AddrPort]*Conn // remote address -> connection (fallback)
	draining  map[cidKey]time.Duration
	drainQ    []drainEntry
	drainHead int
	active    int
	closed    bool

	// drainFor, when non-zero, overrides drainingPeriod (nanoseconds).
	// Tests shorten it on a running endpoint; nothing else sets it.
	drainFor atomic.Int64
}

func (rt *routeTable) period() time.Duration {
	if d := rt.drainFor.Load(); d != 0 {
		return time.Duration(d)
	}
	return drainingPeriod
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
	now := monoNow()
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
	_, evicted = rt.parkLocked(id, c, monoNow())
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
	return true, rt.drainLocked(k, now)
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
		parkedAt, late = rt.draining[k]
	}
	rt.mu.Unlock()
	if late {
		late = monoNow()-parkedAt <= rt.period()
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

// drainLocked adds a retired CID key to the draining set and pops
// expired entries, returning how many live tombstones the cap evicted.
func (rt *routeTable) drainLocked(k cidKey, now time.Duration) (evicted int) {
	if rt.draining == nil {
		rt.draining = make(map[cidKey]time.Duration)
	}
	rt.draining[k] = now
	rt.drainQ = append(rt.drainQ, drainEntry{key: k, at: now})
	return rt.expireDrainingLocked(now)
}

// expireDrainingLocked pops expired (or over-cap) entries from the
// front of the retirement-ordered queue. Entries past the cap are
// evicted early (their late packets count as drops rather than late
// packets), bounding memory when connections churn faster than the
// draining period expires them; it returns how many. The queue is
// compacted whenever its dead prefix is more than half of it, so its
// backing array follows the table's peak of live tombstones rather than
// how many it has ever parked. Amortized O(1) per retire.
func (rt *routeTable) expireDrainingLocked(now time.Duration) (evicted int) {
	period := rt.period()
	for rt.drainHead < len(rt.drainQ) {
		e := &rt.drainQ[rt.drainHead]
		expired := now-e.at > period
		if !expired && len(rt.drainQ)-rt.drainHead <= maxDraining {
			break
		}
		// A key can reappear in the queue only if the same CID was
		// retired twice; keep the map entry unless it is this one's.
		if at, ok := rt.draining[e.key]; ok && at == e.at {
			delete(rt.draining, e.key)
			if !expired {
				evicted++
			}
		}
		rt.drainHead++
	}
	if rt.drainHead > len(rt.drainQ)/2 {
		n := copy(rt.drainQ, rt.drainQ[rt.drainHead:])
		rt.drainQ = rt.drainQ[:n]
		rt.drainHead = 0
	}
	return evicted
}
