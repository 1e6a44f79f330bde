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

// routeShards is the number of independent route-table shards. The
// receive hot path used to funnel every datagram of every socket
// through one endpoint-wide mutex; sharding by a hash of the route
// key lets the per-socket pumps demux concurrently. Must stay a
// power of two (a key's shard is its hash, masked).
const routeShards = 16

// maxDrainingPerShard caps each shard's draining set (8192 tombstones
// per table).
const maxDrainingPerShard = 8192 / routeShards

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

// routeShard is one slice of the demux state: connections keyed by
// local CID, the remote-address fallback route, and the draining set
// absorbing late packets for retired CIDs. CID keys and address keys
// hash to shards independently — a connection's CID route and address
// route usually live in different shards, and the two locks are only
// ever taken sequentially, never nested.
//
// drainQ keeps the draining keys in retirement order so expiry is an
// amortized O(1) pop from the front (a periodic full-map sweep goes
// quadratic under scanner churn: with tens of thousands of short-lived
// connections per draining period, every sweep scans entries that are
// almost all too young to remove).
type routeShard struct {
	mu        sync.Mutex
	conns     map[cidKey]*Conn         // local CID -> connection
	byAddr    map[netip.AddrPort]*Conn // remote address -> connection (fallback)
	draining  map[cidKey]time.Duration
	drainQ    []drainEntry
	drainHead int
}

// fnv1a hashes a route key (CID or address bytes).
func fnv1a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func (k *cidKey) shard() int { return int(fnv1a(k.b[:k.n]) & (routeShards - 1)) }

// addrHash is FNV-1a over an address's 16-byte form and port.
func addrHash(ap netip.AddrPort) uint64 {
	var b [18]byte
	a := ap.Addr().As16()
	copy(b[:], a[:])
	b[16], b[17] = byte(ap.Port()>>8), byte(ap.Port())
	return fnv1a(b[:])
}

func addrShard(ap netip.AddrPort) int { return int(addrHash(ap) & (routeShards - 1)) }

// routeTable is the datagram demux state of one endpoint (a Transport's
// client connections or a Listener's server connections):
// live routes by connection ID, the client's remote-address fallback,
// and key-only tombstones for the IDs of closed connections. The zero
// value is ready to use; shard maps are created at first write (reads
// and deletes on nil maps are safe, and most shards of a
// one-connection Transport never see a key).
//
// A connection's routes are its source ID, the other IDs it issued
// (c.localCIDs), on a server the client's original destination ID, and
// on a client its active address (c.activeAP). The table stores no copy
// of them: retire rebuilds each key from the Conn, with c.mu held, as
// every call of a connection into its endpoint is made. Lock order is
// c.mu, then mu, then one shard mutex; no table lock is ever held while
// calling into a Conn.
type routeTable struct {
	shards [routeShards]routeShard

	// mu guards only the registration control plane (closed, active);
	// the datagram hot path never takes it.
	mu     sync.Mutex
	active int
	closed bool

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
	if !rt.insert(c.scid, c) {
		return errDuplicateCID
	}
	if c.isClient {
		rt.insertAddr(c.activeAP, c)
	}
	rt.active++
	return nil
}

func (rt *routeTable) insert(id []byte, c *Conn) bool {
	k, ok := keyOf(id)
	if !ok {
		return false
	}
	sh := &rt.shards[k.shard()]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.conns[k]; dup {
		return false
	}
	if sh.conns == nil {
		sh.conns = make(map[cidKey]*Conn)
	}
	sh.conns[k] = c
	return true
}

func (rt *routeTable) insertAddr(ap netip.AddrPort, c *Conn) {
	if !ap.IsValid() {
		return
	}
	sh := &rt.shards[addrShard(ap)]
	sh.mu.Lock()
	if _, taken := sh.byAddr[ap]; !taken {
		if sh.byAddr == nil {
			sh.byAddr = make(map[netip.AddrPort]*Conn)
		}
		sh.byAddr[ap] = c
	}
	sh.mu.Unlock()
}

func (rt *routeTable) removeAddr(ap netip.AddrPort, c *Conn) {
	sh := &rt.shards[addrShard(ap)]
	sh.mu.Lock()
	if sh.byAddr[ap] == c {
		delete(sh.byAddr, ap)
	}
	sh.mu.Unlock()
}

// addConnID routes an additional connection ID to c. It fails on
// collision (the caller simply issues fewer IDs), for an ID too long to
// be one, or after close.
func (rt *routeTable) addConnID(c *Conn, id []byte) bool {
	rt.mu.Lock()
	closed := rt.closed
	rt.mu.Unlock()
	return !closed && rt.insert(id, c)
}

// retire removes every route of a closing connection and parks its
// connection IDs as tombstones, so late packets on any of them are
// absorbed as tail traffic instead of being misread as drops, new
// connections or stateless-reset triggers. Nothing in the table
// references c afterwards. It reports whether c was still registered,
// and how many older tombstones the per-shard cap evicted to make room.
func (rt *routeTable) retire(c *Conn) (ok bool, evicted int) {
	now := monoNow()
	if ok, evicted = rt.park(c.scid, c, now); !ok {
		return false, 0
	}
	if c.isClient {
		rt.removeAddr(c.activeAP, c)
	} else {
		_, n := rt.park(c.origDcid, c, now)
		evicted += n
	}
	for _, lc := range c.localCIDs {
		if lc.seq != 0 { // sequence 0 is the source ID, parked above
			_, n := rt.park(lc.id, c, now)
			evicted += n
		}
	}
	rt.mu.Lock()
	rt.active--
	rt.mu.Unlock()
	return true, evicted
}

// park moves id from the live routes to the draining set if c owns it,
// reporting whether it did and how many tombstones the cap evicted.
func (rt *routeTable) park(id []byte, c *Conn, now time.Duration) (ok bool, evicted int) {
	k, ok := keyOf(id)
	if !ok {
		return false, 0
	}
	sh := &rt.shards[k.shard()]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.conns[k] != c {
		return false, 0
	}
	delete(sh.conns, k)
	return true, sh.parkLocked(k, now, rt.period())
}

// rebindAddr moves a client connection's address-fallback route from
// one validated address to the next after a migration; a server
// connection has no address route and gets none. Deliberately not
// called on mere address mismatches: the route follows proven paths
// only, so an off-path spoofer cannot steal another connection's
// fallback entry.
func (rt *routeTable) rebindAddr(c *Conn, from, to netip.AddrPort) {
	if !c.isClient {
		return
	}
	rt.removeAddr(from, c)
	rt.insertAddr(to, c)
}

// lookup resolves a destination connection ID to its connection. A nil
// connection with late set means the ID was retired within the
// draining period. shard is the shard the ID hashed to. The key is
// built on the stack, so no per-packet key is allocated.
func (rt *routeTable) lookup(dstID []byte) (c *Conn, late bool, shard int) {
	k, ok := keyOf(dstID)
	shard = k.shard()
	if !ok {
		return nil, false, shard
	}
	sh := &rt.shards[shard]
	sh.mu.Lock()
	c = sh.conns[k]
	var parkedAt time.Duration
	if c == nil {
		parkedAt, late = sh.draining[k]
	}
	sh.mu.Unlock()
	if late {
		late = monoNow()-parkedAt <= rt.period()
	}
	return c, late, shard
}

// lookupAddr resolves the remote-address fallback route.
func (rt *routeTable) lookupAddr(ap netip.AddrPort) *Conn {
	sh := &rt.shards[addrShard(ap)]
	sh.mu.Lock()
	c := sh.byAddr[ap]
	sh.mu.Unlock()
	return c
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
	var conns []*Conn
	for i := range rt.shards {
		sh := &rt.shards[i]
		sh.mu.Lock()
		for _, c := range sh.conns {
			conns = append(conns, c)
		}
		sh.mu.Unlock()
	}
	return conns
}

// parkLocked adds a retired CID key to the shard's draining set and
// pops expired entries, returning how many live tombstones the cap
// evicted. Caller holds the shard mutex.
func (sh *routeShard) parkLocked(k cidKey, now, period time.Duration) (evicted int) {
	if sh.draining == nil {
		sh.draining = make(map[cidKey]time.Duration)
	}
	sh.draining[k] = now
	sh.drainQ = append(sh.drainQ, drainEntry{key: k, at: now})
	return sh.expireDrainingLocked(now, period)
}

// expireDrainingLocked pops expired (or over-cap) entries from the
// front of the shard's retirement-ordered queue. Entries past the cap
// are evicted early (their late packets count as drops rather than
// late packets), bounding memory when connections churn faster than
// the draining period expires them; it returns how many. The queue is
// compacted whenever its dead prefix is more than half of it, so its
// backing array follows the shard's peak of live tombstones rather than
// how many it has ever parked. Amortized O(1) per retire; caller holds
// the shard mutex.
func (sh *routeShard) expireDrainingLocked(now, period time.Duration) (evicted int) {
	for sh.drainHead < len(sh.drainQ) {
		e := &sh.drainQ[sh.drainHead]
		expired := now-e.at > period
		if !expired && len(sh.drainQ)-sh.drainHead <= maxDrainingPerShard {
			break
		}
		// A key can reappear in the queue only if the same CID was
		// retired twice; keep the map entry unless it is this one's.
		if at, ok := sh.draining[e.key]; ok && at == e.at {
			delete(sh.draining, e.key)
			if !expired {
				evicted++
			}
		}
		sh.drainHead++
	}
	if sh.drainHead > len(sh.drainQ)/2 {
		n := copy(sh.drainQ, sh.drainQ[sh.drainHead:])
		sh.drainQ = sh.drainQ[:n]
		sh.drainHead = 0
	}
	return evicted
}
