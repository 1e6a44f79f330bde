package transportparams

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"quicscan/internal/quicwire"
)

func samples() []Parameters {
	cloudflare := Default()
	cloudflare.MaxIdleTimeout = 30000
	cloudflare.InitialMaxData = 10485760
	cloudflare.InitialMaxStreamDataBidiLocal = 1048576
	cloudflare.InitialMaxStreamDataBidiRemote = 1048576
	cloudflare.InitialMaxStreamDataUni = 1048576
	cloudflare.InitialMaxStreamsBidi = 100
	cloudflare.InitialMaxStreamsUni = 3
	cloudflare.MaxUDPPayloadSize = 1452
	cloudflare.DisableActiveMigration = true

	facebook := Default()
	facebook.MaxIdleTimeout = 60000
	facebook.InitialMaxData = 15728640
	facebook.InitialMaxStreamDataBidiLocal = 10485760
	facebook.InitialMaxStreamDataBidiRemote = 10485760
	facebook.InitialMaxStreamDataUni = 10485760
	facebook.InitialMaxStreamsBidi = 128
	facebook.InitialMaxStreamsUni = 128
	facebook.MaxUDPPayloadSize = 1500
	facebook.ActiveConnectionIDLimit = 4

	return []Parameters{Default(), cloudflare, facebook}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	for i, p := range samples() {
		p.HasInitialSourceConnectionID = true
		p.InitialSourceConnectionID = quicwire.ConnID{1, 2, 3, 4}
		p.StatelessResetToken = bytes.Repeat([]byte{7}, 16)
		b := p.Marshal()
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !reflect.DeepEqual(p, got) {
			t.Errorf("sample %d round trip mismatch:\n got %+v\nwant %+v", i, got, p)
		}
	}
}

func TestDefaultsOmittedFromWire(t *testing.T) {
	p := Default()
	if b := p.Marshal(); len(b) != 0 {
		t.Errorf("all-defaults marshal produced %d bytes: %x", len(b), b)
	}
	got, err := Unmarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxUDPPayloadSize != DefaultMaxUDPPayloadSize ||
		got.AckDelayExponent != defaultAckDelayExponent ||
		got.MaxAckDelay != defaultMaxAckDelay ||
		got.ActiveConnectionIDLimit != defaultActiveConnIDLimit {
		t.Errorf("defaults not applied: %+v", got)
	}
}

func TestUnknownParametersPreserved(t *testing.T) {
	p := Default()
	p.Unknown = []RawParameter{
		{ID: 0x3127, Value: []byte{1, 2, 3}},    // GREASE-style
		{ID: 0x0020, Value: []byte{0x44, 0x01}}, // datagram draft
	}
	b := p.Marshal()
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Unknown, p.Unknown) {
		t.Errorf("unknown params: %+v", got.Unknown)
	}
	if !strings.Contains(got.Fingerprint(), "unknown_0x3127") {
		t.Error("fingerprint ignores unknown parameters")
	}
}

// TestGreaseParametersIgnored: reserved transport parameters of the
// form 31*N+27 (RFC 9000, Section 18.1) must be ignored — the decoder
// accepts them without error, keeps every known parameter intact, and
// surfaces the reserved entries only in Unknown. The fingerprint
// prober's GREASE scenario depends on this being the conforming
// baseline behaviour.
func TestGreaseParametersIgnored(t *testing.T) {
	p := Default()
	p.InitialMaxData = 1 << 20
	for _, n := range []uint64{0, 1, 173, 9999} {
		id := 31*n + 27
		q := p
		q.Unknown = []RawParameter{{ID: id, Value: []byte{0x5a, 0x5a}}}
		got, err := Unmarshal(q.Marshal())
		if err != nil {
			t.Fatalf("grease ID %#x rejected: %v", id, err)
		}
		if got.InitialMaxData != p.InitialMaxData {
			t.Errorf("grease ID %#x corrupted known parameters", id)
		}
		if len(got.Unknown) != 1 || got.Unknown[0].ID != id {
			t.Errorf("grease ID %#x not preserved as unknown: %+v", id, got.Unknown)
		}
	}
	// An empty-valued grease parameter is also legal.
	q := p
	q.Unknown = []RawParameter{{ID: 27, Value: nil}}
	if _, err := Unmarshal(q.Marshal()); err != nil {
		t.Errorf("empty-valued grease parameter rejected: %v", err)
	}
}

func TestDuplicateParameterRejected(t *testing.T) {
	var b []byte
	b = appendIntParam(b, idInitialMaxData, 100)
	b = appendIntParam(b, idInitialMaxData, 200)
	if _, err := Unmarshal(b); err == nil {
		t.Error("duplicate parameter accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
	}{
		{"udp payload below 1200", appendIntParam(nil, idMaxUDPPayloadSize, 1199)},
		{"ack delay exponent over 20", appendIntParam(nil, idAckDelayExponent, 21)},
		{"max ack delay over 2^14", appendIntParam(nil, idMaxAckDelay, 1<<14)},
		{"active cid limit below 2", appendIntParam(nil, idActiveConnectionIDLimit, 1)},
		{"reset token wrong size", appendParam(nil, idStatelessResetToken, make([]byte, 5))},
		{"disable migration with value", appendParam(nil, idDisableActiveMigration, []byte{1})},
		{"preferred address too short", appendParam(nil, idPreferredAddress, make([]byte, 40))},
		{"preferred address zero-length CID", appendParam(nil, idPreferredAddress, make([]byte, 41))},
		{"preferred address CID over 20", appendParam(nil, idPreferredAddress, append(append(make([]byte, 24), 21), make([]byte, 37)...))},
		{"preferred address trailing bytes", appendParam(nil, idPreferredAddress, append(append(make([]byte, 24), 1), make([]byte, 18)...))},
		{"non-varint int param", appendParam(nil, idInitialMaxData, []byte{0x40})},
		{"trailing garbage length", []byte{0x04, 0x0a, 0x01}},
		{"truncated id", []byte{0x40}},
	}
	for _, c := range cases {
		if _, err := Unmarshal(c.b); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestPreferredAddressRoundTrip: the structured preferred_address
// survives Marshal/Unmarshal through a full parameter set, in
// dual-stack, v4-only and v6-only variants, and a not-offered family
// decodes as an invalid AddrPort.
func TestPreferredAddressRoundTrip(t *testing.T) {
	cases := []*PreferredAddress{
		{
			V4:                  netip.MustParseAddrPort("198.51.100.7:443"),
			V6:                  netip.MustParseAddrPort("[2001:db8::9]:8443"),
			ConnID:              quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8},
			StatelessResetToken: [16]byte{0: 1, 15: 16},
		},
		{V4: netip.MustParseAddrPort("203.0.113.1:4433"), ConnID: quicwire.ConnID{9}},
		{V6: netip.MustParseAddrPort("[2001:db8::1]:443"), ConnID: quicwire.ConnID{1, 2, 3}},
	}
	for i, pa := range cases {
		p := Default()
		p.MaxIdleTimeout = 30000
		p.PreferredAddress = pa
		got, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.PreferredAddress, pa) {
			t.Errorf("case %d round trip mismatch:\n got %+v\nwant %+v", i, got.PreferredAddress, pa)
		}
	}
	if cases[1].V6.IsValid() {
		t.Error("v4-only case unexpectedly has a valid V6")
	}
}

func TestFingerprintStability(t *testing.T) {
	s := samples()
	fps := make(map[string]int)
	for i, p := range s {
		fps[p.Fingerprint()] = i
	}
	if len(fps) != len(s) {
		t.Fatalf("fingerprints collide: %v", fps)
	}
	// Session-specific parameters must not affect the fingerprint.
	p := s[1]
	fp1 := p.Fingerprint()
	p.StatelessResetToken = bytes.Repeat([]byte{9}, 16)
	p.OriginalDestinationConnectionID = quicwire.ConnID{1}
	p.InitialSourceConnectionID = quicwire.ConnID{2}
	p.HasInitialSourceConnectionID = true
	p.RetrySourceConnectionID = quicwire.ConnID{3}
	p.PreferredAddress = &PreferredAddress{
		V4:     netip.MustParseAddrPort("192.0.2.1:4443"),
		ConnID: quicwire.ConnID{4, 5, 6},
	}
	if p.Fingerprint() != fp1 {
		t.Error("session-specific parameters leaked into fingerprint")
	}
	// But configuration-relevant parameters must.
	p.MaxUDPPayloadSize = 1404
	if p.Fingerprint() == fp1 {
		t.Error("max_udp_payload_size change did not alter fingerprint")
	}
}

// sprintfFingerprint is the definition Fingerprint's single append pass
// must reproduce byte for byte: every pair rendered with fmt, sorted,
// joined. (It is what Fingerprint was before it stopped allocating a
// string per parameter.)
func sprintfFingerprint(p *Parameters) string {
	kv := []string{
		fmt.Sprintf("ack_delay_exponent=%d", p.AckDelayExponent),
		fmt.Sprintf("active_connection_id_limit=%d", p.ActiveConnectionIDLimit),
		fmt.Sprintf("disable_active_migration=%t", p.DisableActiveMigration),
		fmt.Sprintf("initial_max_data=%d", p.InitialMaxData),
		fmt.Sprintf("initial_max_stream_data_bidi_local=%d", p.InitialMaxStreamDataBidiLocal),
		fmt.Sprintf("initial_max_stream_data_bidi_remote=%d", p.InitialMaxStreamDataBidiRemote),
		fmt.Sprintf("initial_max_stream_data_uni=%d", p.InitialMaxStreamDataUni),
		fmt.Sprintf("initial_max_streams_bidi=%d", p.InitialMaxStreamsBidi),
		fmt.Sprintf("initial_max_streams_uni=%d", p.InitialMaxStreamsUni),
		fmt.Sprintf("max_ack_delay=%d", p.MaxAckDelay),
		fmt.Sprintf("max_idle_timeout=%d", p.MaxIdleTimeout),
		fmt.Sprintf("max_udp_payload_size=%d", p.MaxUDPPayloadSize),
	}
	for _, u := range p.Unknown {
		kv = append(kv, fmt.Sprintf("unknown_0x%x=%x", u.ID, u.Value))
	}
	sort.Strings(kv)
	return strings.Join(kv, ",")
}

// TestFingerprintMatchesSortedPairs: 10,000 random parameter sets,
// with zero to three unknown parameters whose IDs are chosen so that
// string order and numeric order disagree (0x10 sorts before 0x2) and
// whose values may be empty, fingerprint exactly as the sorted-pairs
// definition says.
func TestFingerprintMatchesSortedPairs(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 16))
	ids := []uint64{0x2, 0x10, 0x3127, 0xff, 0x100, 0x1f, 0xabcdef0123}
	for i := 0; i < 10000; i++ {
		p := Parameters{
			MaxIdleTimeout:                 rng.Uint64() >> rng.IntN(64),
			MaxUDPPayloadSize:              rng.Uint64() >> rng.IntN(64),
			InitialMaxData:                 rng.Uint64() >> rng.IntN(64),
			InitialMaxStreamDataBidiLocal:  rng.Uint64() >> rng.IntN(64),
			InitialMaxStreamDataBidiRemote: rng.Uint64() >> rng.IntN(64),
			InitialMaxStreamDataUni:        rng.Uint64() >> rng.IntN(64),
			InitialMaxStreamsBidi:          rng.Uint64() >> rng.IntN(64),
			InitialMaxStreamsUni:           rng.Uint64() >> rng.IntN(64),
			AckDelayExponent:               rng.Uint64() >> rng.IntN(64),
			MaxAckDelay:                    rng.Uint64() >> rng.IntN(64),
			ActiveConnectionIDLimit:        rng.Uint64() >> rng.IntN(64),
			DisableActiveMigration:         rng.IntN(2) == 0,
		}
		for n := rng.IntN(4); n > 0; n-- {
			value := make([]byte, rng.IntN(5))
			for j := range value {
				value[j] = byte(rng.Uint32())
			}
			p.Unknown = append(p.Unknown, RawParameter{ID: ids[rng.IntN(len(ids))], Value: value})
		}
		if got, want := p.Fingerprint(), sprintfFingerprint(&p); got != want {
			t.Fatalf("set %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestMarshalUnmarshalProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: nil}
	f := func(idle, maxData, sdBidiL, sdBidiR, sdUni, sBidi, sUni uint32, udp uint16, exp, delay uint8, migrate bool) bool {
		p := Default()
		p.MaxIdleTimeout = uint64(idle)
		p.InitialMaxData = uint64(maxData)
		p.InitialMaxStreamDataBidiLocal = uint64(sdBidiL)
		p.InitialMaxStreamDataBidiRemote = uint64(sdBidiR)
		p.InitialMaxStreamDataUni = uint64(sdUni)
		p.InitialMaxStreamsBidi = uint64(sBidi)
		p.InitialMaxStreamsUni = uint64(sUni)
		p.MaxUDPPayloadSize = 1200 + uint64(udp)
		p.AckDelayExponent = uint64(exp % 21)
		p.MaxAckDelay = uint64(delay)
		p.DisableActiveMigration = migrate
		got, err := Unmarshal(p.Marshal())
		return err == nil && reflect.DeepEqual(p, got) && got.Fingerprint() == p.Fingerprint()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	base := samples()[1].Marshal()
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), base...)
		for j := 0; j < 1+rng.IntN(4); j++ {
			b[rng.IntN(len(b))] = byte(rng.Uint32())
		}
		b = b[:rng.IntN(len(b)+1)]
		Unmarshal(b) // must not panic
	}
}
