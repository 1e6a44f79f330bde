package asdb

import (
	"net/netip"
	"testing"
)

func TestLongestPrefixMatch(t *testing.T) {
	db := New()
	db.Add(netip.MustParsePrefix("10.0.0.0/8"), 100)
	db.Add(netip.MustParsePrefix("10.1.0.0/16"), 200)
	db.Add(netip.MustParsePrefix("10.1.2.0/24"), 300)

	cases := []struct {
		addr string
		want ASN
	}{
		{"10.9.9.9", 100},
		{"10.1.9.9", 200},
		{"10.1.2.3", 300},
	}
	for _, c := range cases {
		got, ok := db.Lookup(netip.MustParseAddr(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %d,%v want %d", c.addr, got, ok, c.want)
		}
	}
	if _, ok := db.Lookup(netip.MustParseAddr("192.168.1.1")); ok {
		t.Error("uncovered address matched")
	}
	if size(db) != 3 {
		t.Errorf("size = %d", size(db))
	}
}

func TestIPv6Lookup(t *testing.T) {
	db := New()
	db.Add(netip.MustParsePrefix("2001:db8::/32"), 13335)
	db.Add(netip.MustParsePrefix("2001:db8:1::/48"), 15169)

	if asn, ok := db.Lookup(netip.MustParseAddr("2001:db8:ffff::1")); !ok || asn != 13335 {
		t.Errorf("got %d,%v", asn, ok)
	}
	if asn, ok := db.Lookup(netip.MustParseAddr("2001:db8:1::1")); !ok || asn != 15169 {
		t.Errorf("got %d,%v", asn, ok)
	}
	if _, ok := db.Lookup(netip.MustParseAddr("2001:dead::1")); ok {
		t.Error("uncovered v6 matched")
	}
}

func TestV4InV6Unmapped(t *testing.T) {
	db := New()
	db.Add(netip.MustParsePrefix("198.51.100.0/24"), 42)
	mapped := netip.AddrFrom16(netip.MustParseAddr("198.51.100.7").As16())
	if asn, ok := db.Lookup(mapped); !ok || asn != 42 {
		t.Errorf("mapped lookup = %d,%v", asn, ok)
	}
}

func TestUnmaskedPrefixCanonicalized(t *testing.T) {
	db := New()
	db.Add(netip.MustParsePrefix("10.1.2.3/16"), 7) // host bits set
	if asn, ok := db.Lookup(netip.MustParseAddr("10.1.0.1")); !ok || asn != 7 {
		t.Errorf("got %d,%v", asn, ok)
	}
}

func TestNames(t *testing.T) {
	if Name(ASCloudflare) != "Cloudflare, Inc." {
		t.Errorf("Cloudflare name = %q", Name(ASCloudflare))
	}
	if Name(ASFacebook) != "Facebook, Inc." {
		t.Errorf("Facebook name = %q", Name(ASFacebook))
	}
	if Name(ASN(99999999)) != "AS99999999" {
		t.Errorf("unknown = %q", Name(99999999))
	}
}

func TestOverwriteDoesNotInflateSize(t *testing.T) {
	db := New()
	p := netip.MustParsePrefix("203.0.113.0/24")
	db.Add(p, 1)
	db.Add(p, 2)
	if size(db) != 1 {
		t.Errorf("size = %d", size(db))
	}
	if asn, _ := db.Lookup(netip.MustParseAddr("203.0.113.1")); asn != 2 {
		t.Errorf("asn = %d", asn)
	}
}

// size counts the registered prefixes.
func size(db *DB) int {
	n := 0
	for _, tbl := range []map[int]map[netip.Addr]ASN{db.v4, db.v6} {
		for _, m := range tbl {
			n += len(m)
		}
	}
	return n
}
