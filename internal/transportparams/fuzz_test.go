package transportparams

import (
	"net/netip"
	"reflect"
	"testing"

	"quicscan/internal/quicwire"
)

// FuzzParse: Unmarshal must never panic on arbitrary extension bodies,
// and every accepted blob must survive a Marshal/Unmarshal round trip
// (unknown parameters are dropped, so only re-marshalling stability is
// asserted, not byte equality with the input).
func FuzzParse(f *testing.F) {
	def := Default()
	f.Add(def.Marshal())
	full := Default()
	full.MaxIdleTimeout = 30000
	full.InitialMaxData = 1 << 20
	full.StatelessResetToken = []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	full.DisableActiveMigration = true
	f.Add(full.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x00})             // truncated: id without length
	f.Add([]byte{0x01, 0x02, 0xff}) // length overruns the buffer
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc := p.Marshal()
		p2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-unmarshal of marshalled params failed: %v (input %x, enc %x)", err, b, enc)
		}
		if p.Fingerprint() != p2.Fingerprint() {
			t.Fatalf("fingerprint changed across round trip: %q vs %q", p.Fingerprint(), p2.Fingerprint())
		}
	})
}

// FuzzPreferredAddress: parsePreferredAddress must never panic on
// arbitrary values, every accepted value must re-encode to the exact
// input bytes, and every re-encoded value must decode to an equal
// structure.
func FuzzPreferredAddress(f *testing.F) {
	valid := &PreferredAddress{
		V4:                  netip.MustParseAddrPort("198.51.100.7:443"),
		V6:                  netip.MustParseAddrPort("[2001:db8::9]:8443"),
		ConnID:              quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8},
		StatelessResetToken: [16]byte{0: 0xaa, 15: 0x55},
	}
	f.Add(valid.encode())
	v4only := &PreferredAddress{
		V4:     netip.MustParseAddrPort("203.0.113.1:4433"),
		ConnID: quicwire.ConnID{9},
	}
	f.Add(v4only.encode())
	f.Add([]byte{})
	f.Add(make([]byte, preferredAddressFixedLen))      // zero-length CID: rejected
	f.Add(append(make([]byte, 24), 21))                // CID length over 20
	f.Add(valid.encode()[:preferredAddressFixedLen-1]) // truncated
	f.Add(append(valid.encode(), 0))                   // trailing garbage
	f.Fuzz(func(t *testing.T, b []byte) {
		pa, err := parsePreferredAddress(b)
		if err != nil {
			return
		}
		enc := pa.encode()
		if string(enc) != string(b) {
			t.Fatalf("accepted value does not re-encode identically:\n in  %x\n out %x", b, enc)
		}
		pa2, err := parsePreferredAddress(enc)
		if err != nil {
			t.Fatalf("re-parse of encoded preferred_address failed: %v (%x)", err, enc)
		}
		if !reflect.DeepEqual(pa, pa2) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", pa2, pa)
		}
	})
}
