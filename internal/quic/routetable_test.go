package quic

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"reflect"
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

// TestDrainQueueFollowsLiveTombstones: a shard's draining queue is
// bounded by the tombstones alive at once, not by how many it has ever
// parked. 10,000 retirements spaced so that at most four are inside the
// draining period at any time leave a backing array of a few entries.
func TestDrainQueueFollowsLiveTombstones(t *testing.T) {
	sh := &routeShard{}
	step := drainingPeriod/4 + 1
	for i := 0; i < 10000; i++ {
		if n := sh.parkLocked(testKey(i), time.Duration(i)*step, drainingPeriod); n != 0 {
			t.Fatalf("park %d: %d cap evictions with at most 4 tombstones live", i, n)
		}
		if got := len(sh.draining); got > 4 {
			t.Fatalf("park %d: %d tombstones in the draining set, want <= 4", i, got)
		}
	}
	if got := cap(sh.drainQ); got > 16 {
		t.Errorf("drain queue capacity %d after 10,000 parks with <= 4 live, want <= 16", got)
	}
}

// TestDrainingStateIsPointerFree: the draining set and its queue hold
// nothing the collector has to scan. A string key or a time.Time (whose
// *Location is a pointer) coming back would fail here.
func TestDrainingStateIsPointerFree(t *testing.T) {
	var sh routeShard
	draining := reflect.TypeOf(sh.draining)
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
		if got, late, _ := rt.lookup(long); got != nil || late {
			t.Errorf("%d-byte ID: lookup = %p, late %v; want a miss", n, got, late)
		}
		if rt.addConnID(c, long) {
			t.Errorf("%d-byte ID registered", n)
		}
	}
	if got, _, _ := rt.lookup(c.scid); got != c {
		t.Fatal("the 20-byte ID does not route")
	}
	if ok, _ := rt.retire(c); !ok {
		t.Fatal("retire: connection was not registered")
	}
	if _, late, _ := rt.lookup(c.scid); !late {
		t.Error("the retired 20-byte ID is not draining")
	}
	if _, late, _ := rt.lookup(append(bytes.Clone(c.scid), 0)); late {
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
