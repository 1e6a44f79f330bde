package quic

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
)

// testHash is the draining key of a 4-byte connection ID holding i.
func testHash(i int) uint64 {
	return drainHash(binary.BigEndian.AppendUint32(nil, uint32(i)))
}

// tombstones expires what is due and counts the rest.
func (rt *routeTable) tombstones() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.expireDrainingLocked(rt.now())
	return rt.draining.len()
}

// advance takes the table's clock, stopping it where monoNow stands if
// it still runs, and moves it on by d: advance(0) stops it, and
// advance(drainingPeriod + time.Nanosecond) expires every tombstone
// parked until then.
func (rt *routeTable) advance(d time.Duration) {
	rt.clock.CompareAndSwap(0, int64(monoNow()))
	rt.clock.Add(int64(d))
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
// draining period are removed (and not counted), expiry is driven from
// the front of the retirement-ordered queue (no full-map sweep), and
// once a burst has expired the set gives back what the burst made it
// hold.
func TestDrainingSetExpiry(t *testing.T) {
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC() // and what sync.Pool victim caches held
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	heap0 := liveHeap()
	rt := new(routeTable)
	evicted := 0
	park := func(i int, at time.Duration) {
		evicted += rt.drainLocked(testHash(i), at)
	}

	// Fast churn: 3*maxDraining retirements inside one draining period
	// must stay capped, evicting oldest-first.
	for i := 0; i < 3*maxDraining; i++ {
		park(i, time.Duration(i)*time.Microsecond)
	}
	if got := rt.draining.len(); got != maxDraining {
		t.Errorf("draining set size = %d, want the cap, %d", got, maxDraining)
	}
	if _, ok := rt.draining.get(testHash(2*maxDraining - 1)); ok {
		t.Error("an entry older than the newest maxDraining survived cap eviction")
	}
	if _, ok := rt.draining.get(testHash(2 * maxDraining)); !ok {
		t.Error("one of the newest maxDraining entries was evicted")
	}
	if evicted != 2*maxDraining {
		t.Errorf("cap evictions reported = %d, want %d", evicted, 2*maxDraining)
	}
	burst := liveHeap() - heap0

	// Time-based expiry: everything parked above is older than the
	// draining period relative to a later retirement.
	fresh := 3 * maxDraining
	park(fresh, drainingPeriod+time.Second)
	if got := rt.draining.len(); got != 1 {
		t.Errorf("draining set size after period elapsed = %d, want 1 (only the fresh entry)", got)
	}
	if _, ok := rt.draining.get(testHash(fresh)); !ok {
		t.Error("fresh entry missing after expiry pass")
	}
	if evicted != 2*maxDraining {
		t.Errorf("expiry counted as eviction: %d evictions, want %d", evicted, 2*maxDraining)
	}
	if n, c := rt.draining.len(), len(rt.draining.ring); n != 1 || c > drainKeepMin {
		t.Errorf("set not compacted: %d live in a ring of %d, want 1 in at most %d", n, c, drainKeepMin)
	}
	// The burst sized the set for maxDraining tombstones (about 160 KiB);
	// with one tombstone left, it is made anew for a few.
	const most = 64 << 10
	if kept := liveHeap() - heap0; kept > most {
		t.Errorf("the table keeps %d KB of heap after the burst expired (%d KB at its peak), want at most %d KB",
			kept>>10, burst>>10, most>>10)
	} else {
		t.Logf("table heap: %d KB after the burst, %d KB once it expired", burst>>10, kept>>10)
	}
	runtime.KeepAlive(rt)
}

// TestDrainQueueFollowsLiveTombstones: the draining queue is bounded by
// the tombstones alive at once, not by how many it has ever parked.
// 10,000 retirements spaced so that at most four are inside the
// draining period at any time leave a backing array of a few entries.
func TestDrainQueueFollowsLiveTombstones(t *testing.T) {
	var rt routeTable
	step := drainingPeriod/4 + 1
	for i := 0; i < 10000; i++ {
		if n := rt.drainLocked(testHash(i), time.Duration(i)*step); n != 0 {
			t.Fatalf("park %d: %d cap evictions with at most 4 tombstones live", i, n)
		}
		if got := rt.draining.len(); got > 4 {
			t.Fatalf("park %d: %d tombstones in the draining set, want <= 4", i, got)
		}
	}
	if got := len(rt.draining.ring); got > 16 {
		t.Errorf("draining ring capacity %d after 10,000 parks with <= 4 live, want <= 16", got)
	}
}

// TestDrainSetIsAMap: the draining set answers as a map from hash to
// the time of its newest entry would, under pushes and pops that make
// probe runs collide, wrap the ring, repeat hashes, grow it and shrink
// it. Hashes are drawn from a small range, so runs are long and entries
// of one hash meet in the ring.
func TestDrainSetIsAMap(t *testing.T) {
	var d drainSet
	type entry struct {
		h  uint64
		at time.Duration
	}
	var fifo []entry                     // the model's ring
	newest := map[uint64]time.Duration{} // the model's index
	rng := rand.New(rand.NewPCG(1, 2))
	now := time.Duration(0)
	for step := 0; step < 200000; step++ {
		// Phases of growth (7 pushes in 10) and of decline (3 in 10).
		pushes := 3
		if (step/5000)%2 == 0 {
			pushes = 7
		}
		if len(fifo) == 0 || rng.IntN(10) < pushes {
			now++
			h := rng.Uint64N(512) << 20 // low bits zero: every one homes to slot 0
			if rng.IntN(4) == 0 {
				h = rng.Uint64N(64) // small values: long runs at the bottom of the index
			}
			d.push(h, now)
			fifo = append(fifo, entry{h, now})
			newest[h] = now
		} else {
			if got := d.oldest(); got.h != fifo[0].h || got.at != fifo[0].at {
				t.Fatalf("step %d: oldest %+v, want %+v", step, got, fifo[0])
			}
			e := fifo[0]
			fifo = fifo[1:]
			wantLast := newest[e.h] == e.at
			if wantLast {
				delete(newest, e.h)
			}
			if last := d.pop(); last != wantLast {
				t.Fatalf("step %d: pop of %x reported last=%v, want %v", step, e.h, last, wantLast)
			}
			d.shrink()
		}
		if d.len() != len(fifo) {
			t.Fatalf("step %d: %d live, want %d", step, d.len(), len(fifo))
		}
		if step%97 == 0 {
			for h, at := range newest {
				if got, ok := d.get(h); !ok || got != at {
					t.Fatalf("step %d: get(%x) = %v, %v; want %v", step, h, got, ok, at)
				}
			}
			if _, ok := d.get(1 << 40); ok {
				t.Fatalf("step %d: a hash never pushed is in the set", step)
			}
		}
		if c := len(d.ring); c > drainKeepMin && d.len() < c/4 {
			t.Fatalf("step %d: %d live in a ring of %d after shrink", step, d.len(), c)
		}
	}
}

// TestDrainingStateIsPointerFree: the draining set's ring and index hold
// nothing the collector has to scan. A string key or a time.Time (whose
// *Location is a pointer) coming back would fail here.
func TestDrainingStateIsPointerFree(t *testing.T) {
	set := reflect.TypeOf(drainSet{})
	for i := 0; i < set.NumField(); i++ {
		typ := set.Field(i).Type
		if typ.Kind() == reflect.Slice { // the arrays the collector would scan
			typ = typ.Elem()
		}
		if path := pointerPath(typ); path != "" {
			t.Errorf("drainSet.%s: %v holds a pointer: %s", set.Field(i).Name, typ, path)
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
	rt.advance(0) // the clock stands still: nothing expires, evictions are exact
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
