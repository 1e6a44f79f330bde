package quic

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
)

// testKey is the route key of a 4-byte connection ID holding i.
func testKey(i int) cidKey {
	k, _ := keyOf(binary.BigEndian.AppendUint32(nil, uint32(i)))
	return k
}

// tombstones expires what is due and counts the rest.
func (rt *routeTable) tombstones() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.expireDrainingLocked(monoNow())
	return len(rt.draining)
}

// forget drops every route to c without closing it and without leaving
// tombstones, simulating a restarted or load-balanced-away endpoint:
// state lost, not connection closed.
func (rt *routeTable) forget(c *Conn) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for k, v := range rt.conns {
		if v == c {
			delete(rt.conns, k)
		}
	}
}

// TestDrainingSetExpiry exercises the route table's draining set
// directly: it is bounded by the hard cap under fast churn, every
// tombstone the cap pushes out early is counted, entries past the
// draining period are removed (and not counted), and expiry is driven
// from the front of the retirement-ordered queue (no full-map sweep).
func TestDrainingSetExpiry(t *testing.T) {
	var rt routeTable
	evicted := 0
	park := func(i int, at time.Duration) {
		evicted += rt.drainLocked(testKey(i), at)
	}

	// Fast churn: 3*maxDraining retirements inside one draining period
	// must stay capped, evicting oldest-first.
	for i := 0; i < 3*maxDraining; i++ {
		park(i, time.Duration(i)*time.Microsecond)
	}
	if got := len(rt.draining); got != maxDraining {
		t.Errorf("draining set size = %d, want the cap, %d", got, maxDraining)
	}
	if _, ok := rt.draining[testKey(2*maxDraining-1)]; ok {
		t.Error("an entry older than the newest maxDraining survived cap eviction")
	}
	if _, ok := rt.draining[testKey(2*maxDraining)]; !ok {
		t.Error("one of the newest maxDraining entries was evicted")
	}
	if evicted != 2*maxDraining {
		t.Errorf("cap evictions reported = %d, want %d", evicted, 2*maxDraining)
	}

	// Time-based expiry: everything parked above is older than the
	// draining period relative to a later retirement.
	fresh := 3 * maxDraining
	park(fresh, drainingPeriod+time.Second)
	if got := len(rt.draining); got != 1 {
		t.Errorf("draining set size after period elapsed = %d, want 1 (only the fresh entry)", got)
	}
	if _, ok := rt.draining[testKey(fresh)]; !ok {
		t.Error("fresh entry missing after expiry pass")
	}
	if evicted != 2*maxDraining {
		t.Errorf("expiry counted as eviction: %d evictions, want %d", evicted, 2*maxDraining)
	}
	if rt.drainHead != 0 || len(rt.drainQ) != 1 {
		t.Errorf("queue not compacted: head=%d len=%d, want 0/1", rt.drainHead, len(rt.drainQ))
	}
}

// TestDrainQueueFollowsLiveTombstones: the draining queue is bounded by
// the tombstones alive at once, not by how many it has ever parked.
// 10,000 retirements spaced so that at most four are inside the
// draining period at any time leave a backing array of a few entries.
func TestDrainQueueFollowsLiveTombstones(t *testing.T) {
	var rt routeTable
	step := drainingPeriod/4 + 1
	for i := 0; i < 10000; i++ {
		if n := rt.drainLocked(testKey(i), time.Duration(i)*step); n != 0 {
			t.Fatalf("park %d: %d cap evictions with at most 4 tombstones live", i, n)
		}
		if got := len(rt.draining); got > 4 {
			t.Fatalf("park %d: %d tombstones in the draining set, want <= 4", i, got)
		}
	}
	if got := cap(rt.drainQ); got > 16 {
		t.Errorf("drain queue capacity %d after 10,000 parks with <= 4 live, want <= 16", got)
	}
}

// TestDrainingStateIsPointerFree: the draining set and its queue hold
// nothing the collector has to scan. A string key or a time.Time (whose
// *Location is a pointer) coming back would fail here.
func TestDrainingStateIsPointerFree(t *testing.T) {
	var rt routeTable
	draining := reflect.TypeOf(rt.draining)
	for _, typ := range []reflect.Type{draining.Key(), draining.Elem(), reflect.TypeOf(drainEntry{})} {
		if path := pointerPath(typ); path != "" {
			t.Errorf("%v holds a pointer: %s", typ, path)
		}
	}
}

// pointerPath names the first pointer-bearing component of typ, or ""
// when it has none.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return typ.Kind().String()
	case reflect.Array:
		if p := pointerPath(typ.Elem()); p != "" {
			return "[" + p + "]"
		}
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerPath(typ.Field(i).Type); p != "" {
				return typ.Field(i).Name + "." + p
			}
		}
	}
	return ""
}

// TestRouteTableConcurrent: connections registered, looked up, given a
// second ID and retired by many goroutines at once, while
// another reads the table, leave one table with nothing live and its
// tombstones at the cap. Run under -race, it checks the table's one
// lock.
func TestRouteTableConcurrent(t *testing.T) {
	var rt routeTable
	rt.drainFor.Store(int64(time.Hour)) // nothing expires: evictions are exact
	const workers, perWorker = 8, 600
	var evicted atomic.Int64
	var wg sync.WaitGroup
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rt.lookup(binary.BigEndian.AppendUint64(nil, uint64(i%workers)<<32|uint64(i%perWorker)))
			rt.activeConns()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := newConn(&Config{}, i%2 == 0)
				c.scid = quicwire.ConnID(binary.BigEndian.AppendUint64(nil, uint64(w)<<32|uint64(i)))
				c.activeAP = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(w), byte(i >> 8), byte(i)}), 443)
				if err := rt.register(c); err != nil {
					t.Error(err)
					return
				}
				alt := quicwire.ConnID(binary.BigEndian.AppendUint64(nil, uint64(w)<<32|uint64(i)|1<<20))
				if !rt.addConnID(c, alt) {
					t.Errorf("conn %d/%d: second ID not routed", w, i)
					return
				}
				c.localCIDs = append(c.localCIDs, localConnID{seq: 0, id: c.scid}, localConnID{seq: 1, id: alt})
				if got, _ := rt.lookup(alt); got != c {
					t.Errorf("conn %d/%d: second ID routes to %p", w, i, got)
				}
				ok, n := rt.retire(c)
				if !ok {
					t.Errorf("conn %d/%d: not registered at retire", w, i)
				}
				evicted.Add(int64(n))
				if got, _ := rt.lookup(alt); got != nil {
					t.Errorf("conn %d/%d: retired ID still routes", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-stopped
	if got := rt.activeConns(); got != 0 {
		t.Errorf("active = %d after every connection retired, want 0", got)
	}
	if len(rt.conns) != 0 || len(rt.byAddr) != 0 {
		t.Errorf("%d ID routes and %d address routes outlive their connections", len(rt.conns), len(rt.byAddr))
	}
	parked := 2 * workers * perWorker
	if got := rt.tombstones(); got != maxDraining || got+int(evicted.Load()) != parked {
		t.Errorf("%d tombstones and %d cap evictions for %d retired IDs, want %d tombstones and the rest evicted",
			got, evicted.Load(), parked, maxDraining)
	}
}

// TestAddrMissCountsShortHeadersFromElsewhere: quic_route_addr_miss_total
// counts a short-header datagram that reaches a client connection by
// its connection ID from an address other than the active one, once,
// and neither a long-header datagram from there, nor a short-header one
// from the active address, nor one that came by the address route
// (whose key is the active address).
func TestAddrMissCountsShortHeadersFromElsewhere(t *testing.T) {
	e := &endpoint{role: &clientRole, tally: new(tally)}
	c := newConn((&Config{}).clone(), true)
	c.ep = e
	c.scid = quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}
	c.remote = net.UDPAddrFromAddrPort(netip.MustParseAddrPort("1.2.3.4:443"))
	c.initPathLocked(c.remote)
	if err := e.register(c); err != nil {
		t.Fatal(err)
	}
	active := c.remote
	elsewhere := net.UDPAddrFromAddrPort(netip.MustParseAddrPort("5.6.7.8:443"))
	short := append([]byte{0x40}, c.scid...)
	short = append(short, make([]byte, 32)...)
	long := append([]byte{0xe0, 0, 0, 0, 1, connIDLen}, c.scid...) // Handshake
	long = append(long, 0, 16)
	long = append(long, make([]byte, 16)...)
	unknown := bytes.Repeat([]byte{9}, len(short)) // a destination ID nothing owns
	unknown[0] = 0x40

	var hdr quicwire.Header
	for _, tc := range []struct {
		name string
		data []byte
		from net.Addr
		want uint64
	}{
		{"short header from elsewhere", short, elsewhere, 1},
		{"short header from the active address", short, active, 0},
		{"long header from elsewhere", long, elsewhere, 0},
		{"short header by the address route", unknown, active, 0},
	} {
		before := mRouteAddrMiss.Value()
		e.route(&hdr, tc.data, tc.from)
		if got := mRouteAddrMiss.Value() - before; got != tc.want {
			t.Errorf("%s: quic_route_addr_miss_total rose by %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := e.tally.routingMisses.Load(); got != 1 {
		t.Errorf("%d datagrams took the address route, want 1", got)
	}
}

// TestOverlongConnIDIsAMiss: a destination ID longer than a connection
// ID may be is never truncated onto a registered one. A 21-byte and a
// 255-byte ID that start with a live (and later a draining) 20-byte ID
// miss, and neither can be registered.
func TestOverlongConnIDIsAMiss(t *testing.T) {
	var rt routeTable
	c := newConn(&Config{}, false)
	c.scid = bytes.Repeat([]byte{0x5a}, quicwire.MaxConnIDLen)
	if err := rt.register(c); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{quicwire.MaxConnIDLen + 1, 255} {
		long := append(bytes.Repeat([]byte{0x5a}, quicwire.MaxConnIDLen), make([]byte, n-quicwire.MaxConnIDLen)...)
		if got, late := rt.lookup(long); got != nil || late {
			t.Errorf("%d-byte ID: lookup = %p, late %v; want a miss", n, got, late)
		}
		if rt.addConnID(c, long) {
			t.Errorf("%d-byte ID registered", n)
		}
	}
	if got, _ := rt.lookup(c.scid); got != c {
		t.Fatal("the 20-byte ID does not route")
	}
	if ok, _ := rt.retire(c); !ok {
		t.Fatal("retire: connection was not registered")
	}
	if _, late := rt.lookup(c.scid); !late {
		t.Error("the retired 20-byte ID is not draining")
	}
	if _, late := rt.lookup(append(bytes.Clone(c.scid), 0)); late {
		t.Error("a 21-byte ID matched the draining 20-byte one")
	}
}

// TestAddressFallbackAllocatesNothing: a client datagram whose
// destination ID nothing owns reaches its connection through the
// address route without an allocation, from the plain and from the
// IPv4-mapped form of the peer's address alike, and the connection's
// stateless-reset check sees it in both forms.
func TestAddressFallbackAllocatesNothing(t *testing.T) {
	for _, src := range []string{"1.2.3.4:443", "[::ffff:1.2.3.4]:443"} {
		t.Run(src, func(t *testing.T) {
			e := &endpoint{role: &clientRole, tally: new(tally)}
			c := newConn((&Config{}).clone(), true)
			c.ep = e
			c.scid = quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}
			c.remote = net.UDPAddrFromAddrPort(netip.MustParseAddrPort("1.2.3.4:443"))
			c.initPathLocked(c.remote)
			if err := e.register(c); err != nil {
				t.Fatal(err)
			}
			keys, err := quiccrypto.NewKeys(tls.TLS_AES_128_GCM_SHA256, make([]byte, 32))
			if err != nil {
				t.Fatal(err)
			}
			c.spaces[spaceApp].recvKeys = keys
			token := bytes.Repeat([]byte{0xA5}, statelessResetTokenLen)
			c.havePeerParams = true
			c.peerParams.StatelessResetToken = token

			from := net.UDPAddrFromAddrPort(netip.MustParseAddrPort(src))
			dgram := make([]byte, 64) // unknown ID 0x09..., undecryptable, no token
			dgram[0] = 0x40
			for i := 1; i < len(dgram); i++ {
				dgram[i] = 9
			}
			var hdr quicwire.Header
			misses := e.tally.routingMisses.Load()
			const runs = 100
			if allocs := testing.AllocsPerRun(runs, func() { e.route(&hdr, dgram, from) }); allocs != 0 {
				t.Errorf("routing through the address fallback: %.1f allocations per datagram, want 0", allocs)
			}
			if got := e.tally.routingMisses.Load() - misses; got != runs+1 {
				t.Errorf("%d of %d datagrams reached the connection by address", got, runs+1)
			}

			copy(dgram[len(dgram)-statelessResetTokenLen:], token)
			e.route(&hdr, dgram, from)
			select {
			case <-c.Closed():
			default:
				t.Fatal("a stateless reset from this address form did not close the connection")
			}
			if err := c.Err(); !errors.Is(err, errStatelessReset) {
				t.Errorf("close error = %v, want errStatelessReset", err)
			}
			if got := e.routes.lookupAddr(c.activeAP); got != nil {
				t.Error("the address route outlived the connection")
			}
		})
	}
}
