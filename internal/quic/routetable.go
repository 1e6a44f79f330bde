package quic

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// drainingPeriod is how long a retired connection ID keeps absorbing
// late packets before they count as routing drops, mirroring the
// draining state of RFC 9000, Section 10.2.
const drainingPeriod = 3 * time.Second

// routeShards is the number of independent route-table shards. The
// receive hot path used to funnel every datagram of every socket
// through one endpoint-wide mutex; sharding by a hash of the route
// key lets the per-socket pumps demux concurrently. Must stay a
// power of two (shardIndex masks).
const routeShards = 16

// maxDrainingPerShard caps each shard's draining set (8192 tombstones
// per table).
const maxDrainingPerShard = 8192 / routeShards

var (
	errDuplicateCID = errors.New("quic: connection ID already registered")
	errRoutesClosed = errors.New("quic: route table closed")
)

// drainEntry records one retired connection ID and when it was parked,
// queued in retirement order for incremental expiry.
type drainEntry struct {
	key string
	at  time.Time
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
	conns     map[string]*Conn // local CID -> connection
	byAddr    map[string]*Conn // remote address -> connection (fallback)
	draining  map[string]time.Time
	drainQ    []drainEntry
	drainHead int
}

// shardIndex hashes a route key (CID bytes or address string) onto a
// shard with FNV-1a. The two variants keep the compiler's
// zero-allocation string/[]byte conversions intact.
func shardIndex(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return int(h & (routeShards - 1))
}

func shardIndexString(key string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return int(h & (routeShards - 1))
}

// routeTable is the datagram demux state of one endpoint (a Transport's
// client connections or a Listener's server connections):
// live routes by connection ID, the client's remote-address fallback,
// and key-only tombstones for the IDs of closed connections. The zero
// value is ready to use; shard maps are created at first write (reads
// and deletes on nil maps are safe, and most shards of a
// one-connection Transport never see a key).
//
// A connection's route keys are cached on the Conn (scidKey, altKeys,
// remoteKey) and only touched with c.mu held: the connection's calls to
// its endpoint (addConnID, removeConnID, rebindAddr, retire) all run
// under it. Lock order is c.mu, then mu, then one shard mutex; no table
// lock is ever held while calling into a Conn.
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

// register installs c's primary route under c.scidKey and, when
// c.remoteKey is set, the address fallback (never displacing another
// connection's). Holding mu across the inserts orders registration
// against close: either register sees closed, or close's sweep sees c.
func (rt *routeTable) register(c *Conn) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return errRoutesClosed
	}
	if !rt.insert(c.scidKey, c) {
		return errDuplicateCID
	}
	if addr := c.remoteKey; addr != "" {
		rt.insertAddr(addr, c)
	}
	rt.active++
	return nil
}

func (rt *routeTable) insert(key string, c *Conn) bool {
	sh := &rt.shards[shardIndexString(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.conns[key]; dup {
		return false
	}
	if sh.conns == nil {
		sh.conns = make(map[string]*Conn)
	}
	sh.conns[key] = c
	return true
}

func (rt *routeTable) insertAddr(addr string, c *Conn) {
	sh := &rt.shards[shardIndexString(addr)]
	sh.mu.Lock()
	if _, taken := sh.byAddr[addr]; !taken {
		if sh.byAddr == nil {
			sh.byAddr = make(map[string]*Conn)
		}
		sh.byAddr[addr] = c
	}
	sh.mu.Unlock()
}

func (rt *routeTable) removeAddr(addr string, c *Conn) {
	sh := &rt.shards[shardIndexString(addr)]
	sh.mu.Lock()
	if sh.byAddr[addr] == c {
		delete(sh.byAddr, addr)
	}
	sh.mu.Unlock()
}

// addConnID routes an additional connection ID to c. It fails on
// collision (the caller simply issues fewer IDs) or after close.
func (rt *routeTable) addConnID(c *Conn, key string) bool {
	rt.mu.Lock()
	closed := rt.closed
	rt.mu.Unlock()
	if closed || !rt.insert(key, c) {
		return false
	}
	c.altKeys = append(c.altKeys, key)
	return true
}

// removeConnID retires one alternate connection ID (the peer sent
// RETIRE_CONNECTION_ID for it), parking it in the draining set.
func (rt *routeTable) removeConnID(c *Conn, id []byte) {
	for i, key := range c.altKeys {
		if key == string(id) {
			rt.park(key, c, time.Now())
			c.altKeys = append(c.altKeys[:i], c.altKeys[i+1:]...)
			return
		}
	}
}

// retire removes every route of a closing connection and parks its
// connection IDs as tombstones, so late packets on any of them are
// absorbed as tail traffic instead of being misread as drops, new
// connections or stateless-reset triggers. Nothing in the table
// references c afterwards. It reports whether c was still registered.
func (rt *routeTable) retire(c *Conn) bool {
	now := time.Now()
	if !rt.park(c.scidKey, c, now) {
		return false
	}
	if c.remoteKey != "" {
		rt.removeAddr(c.remoteKey, c)
	}
	for _, alt := range c.altKeys {
		rt.park(alt, c, now)
	}
	c.altKeys = nil
	rt.mu.Lock()
	rt.active--
	rt.mu.Unlock()
	return true
}

// park moves key from the live routes to the draining set if c owns it.
func (rt *routeTable) park(key string, c *Conn, now time.Time) bool {
	sh := &rt.shards[shardIndexString(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.conns[key] != c {
		return false
	}
	delete(sh.conns, key)
	sh.parkLocked(key, now, rt.period())
	return true
}

// rebindAddr moves the connection's address-fallback route to addr
// after a validated migration; a connection without one (a server's)
// stays without. Deliberately not called on mere address mismatches:
// the route follows proven paths only, so an off-path spoofer cannot
// steal another connection's fallback entry.
func (rt *routeTable) rebindAddr(c *Conn, addr net.Addr) {
	if c.remoteKey == "" {
		return
	}
	rt.removeAddr(c.remoteKey, c)
	c.remoteKey = addr.String()
	rt.insertAddr(c.remoteKey, c)
}

// lookup resolves a destination connection ID to its connection. A nil
// connection with late set means the ID was retired within the
// draining period. shard is the shard the ID hashed to. dstID stays a
// []byte: the map lookups use the inline string conversion the
// compiler elides, so no per-packet key is allocated.
func (rt *routeTable) lookup(dstID []byte) (c *Conn, late bool, shard int) {
	shard = shardIndex(dstID)
	sh := &rt.shards[shard]
	sh.mu.Lock()
	c = sh.conns[string(dstID)]
	var parkedAt time.Time
	if c == nil {
		parkedAt, late = sh.draining[string(dstID)]
	}
	sh.mu.Unlock()
	if late {
		late = time.Since(parkedAt) <= rt.period()
	}
	return c, late, shard
}

// lookupAddr resolves the remote-address fallback route.
func (rt *routeTable) lookupAddr(addr string) *Conn {
	sh := &rt.shards[shardIndexString(addr)]
	sh.mu.Lock()
	c := sh.byAddr[addr]
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
// pops expired entries. Caller holds the shard mutex.
func (sh *routeShard) parkLocked(key string, now time.Time, period time.Duration) {
	if sh.draining == nil {
		sh.draining = make(map[string]time.Time)
	}
	sh.draining[key] = now
	sh.drainQ = append(sh.drainQ, drainEntry{key: key, at: now})
	sh.expireDrainingLocked(now, period)
}

// expireDrainingLocked pops expired (or over-cap) entries from the
// front of the shard's retirement-ordered queue. Entries past the cap
// are retired early (their late packets count as drops rather than
// late packets), bounding memory when connections churn faster than
// the draining period expires them. Amortized O(1) per retire; caller
// holds the shard mutex.
func (sh *routeShard) expireDrainingLocked(now time.Time, period time.Duration) {
	for sh.drainHead < len(sh.drainQ) {
		e := sh.drainQ[sh.drainHead]
		if now.Sub(e.at) <= period && len(sh.drainQ)-sh.drainHead <= maxDrainingPerShard {
			break
		}
		// A key can reappear in the queue only if the same CID was
		// retired twice; keep the map entry unless it is this one's.
		if at, ok := sh.draining[e.key]; ok && at.Equal(e.at) {
			delete(sh.draining, e.key)
		}
		sh.drainQ[sh.drainHead] = drainEntry{} // release the key string
		sh.drainHead++
	}
	// Compact once the dead prefix dominates so the backing array does
	// not grow without bound.
	if sh.drainHead > 256 && sh.drainHead > len(sh.drainQ)/2 {
		n := copy(sh.drainQ, sh.drainQ[sh.drainHead:])
		sh.drainQ = sh.drainQ[:n]
		sh.drainHead = 0
	}
}
