package quicwire

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestLongHeaderRoundTrip(t *testing.T) {
	for _, typ := range []PacketType{PacketInitial, PacketHandshake, Packet0RTT} {
		h := &Header{
			Type:            typ,
			Version:         VersionDraft29,
			DstID:           ConnID{1, 2, 3, 4, 5, 6, 7, 8},
			SrcID:           ConnID{9, 10, 11},
			PacketNumber:    0x2a,
			PacketNumberLen: 2,
		}
		if typ == PacketInitial {
			h.Token = []byte("tok")
		}
		payload := []byte("payload-bytes-here")
		b, pnOff := AppendLongHeader(nil, h, len(payload))
		b = append(b, payload...)

		got, n, err := ParseLongHeader(b)
		if err != nil {
			t.Fatalf("%v: ParseLongHeader: %v", typ, err)
		}
		if got.Type != typ || got.Version != h.Version {
			t.Errorf("%v: got type %v version %v", typ, got.Type, got.Version)
		}
		if !bytes.Equal(got.DstID, h.DstID) || !bytes.Equal(got.SrcID, h.SrcID) {
			t.Errorf("%v: connection IDs mismatch", typ)
		}
		if typ == PacketInitial && !bytes.Equal(got.Token, h.Token) {
			t.Errorf("token mismatch: %x", got.Token)
		}
		if got.Length != uint64(h.PacketNumberLen+len(payload)) {
			t.Errorf("%v: Length = %d", typ, got.Length)
		}
		if n != pnOff {
			t.Errorf("%v: parse consumed %d, pn offset was %d", typ, n, pnOff)
		}
	}
}

func TestVersionNegotiationRoundTrip(t *testing.T) {
	dst := ConnID{0xde, 0xad}
	src := ConnID{0xbe, 0xef, 0x01}
	versions := []Version{VersionDraft29, VersionDraft28, VersionDraft27, VersionGoogleQ050}
	pkt := AppendVersionNegotiation(nil, dst, src, 0x55, versions)

	h, n, err := ParseLongHeader(pkt)
	if err != nil {
		t.Fatalf("ParseLongHeader: %v", err)
	}
	if h.Type != PacketVersionNegotiation {
		t.Fatalf("type = %v", h.Type)
	}
	if n != len(pkt) {
		t.Errorf("consumed %d of %d", n, len(pkt))
	}
	if !bytes.Equal(h.DstID, dst) || !bytes.Equal(h.SrcID, src) {
		t.Error("connection ID mismatch")
	}
	if len(h.SupportedVersions) != len(versions) {
		t.Fatalf("got %d versions", len(h.SupportedVersions))
	}
	for i, v := range versions {
		if h.SupportedVersions[i] != v {
			t.Errorf("version[%d] = %v want %v", i, h.SupportedVersions[i], v)
		}
	}
}

func TestVersionNegotiationMisaligned(t *testing.T) {
	pkt := AppendVersionNegotiation(nil, ConnID{1}, ConnID{2}, 0, []Version{Version1})
	if _, _, err := ParseLongHeader(pkt[:len(pkt)-1]); err == nil {
		t.Error("misaligned version list parsed without error")
	}
}

func TestShortHeaderRoundTrip(t *testing.T) {
	dst := ConnID{7, 7, 7, 7, 7, 7, 7, 7}
	b, pnOff := AppendShortHeader(nil, dst, 0x1234, 3, true)
	got, n, err := ParseShortHeader(b, len(dst))
	if err != nil {
		t.Fatalf("ParseShortHeader: %v", err)
	}
	if !bytes.Equal(got, dst) {
		t.Errorf("destination ID %x, want %x", got, dst)
	}
	if n != pnOff {
		t.Errorf("consumed %d, pn offset %d", n, pnOff)
	}
	if b[0]&0x04 == 0 {
		t.Error("key phase bit not set")
	}
}

func TestParseLongHeaderRejects(t *testing.T) {
	// Short header byte.
	if _, _, err := ParseLongHeader([]byte{0x41, 0, 0, 0, 1}); err == nil {
		t.Error("short header accepted as long header")
	}
	// Fixed bit zero with non-zero version.
	bad := []byte{0x80, 0xff, 0, 0, 0x1d, 0, 0}
	if _, _, err := ParseLongHeader(bad); err != errBadFixedBit {
		t.Errorf("fixed bit zero: err = %v", err)
	}
	// Connection ID too long.
	long := []byte{0xc0, 0xff, 0, 0, 0x1d, 21}
	long = append(long, make([]byte, 21)...)
	if _, _, err := ParseLongHeader(long); err != errBadConnIDLen {
		t.Errorf("oversized DCID: err = %v", err)
	}
	// Truncation at every prefix of a valid packet must error, not panic.
	h := &Header{Type: PacketInitial, Version: Version1, DstID: ConnID{1, 2, 3}, SrcID: ConnID{4}, PacketNumberLen: 1}
	full, _ := AppendLongHeader(nil, h, 5)
	full = append(full, make([]byte, 5)...)
	for i := 0; i < len(full)-5; i++ {
		if _, _, err := ParseLongHeader(full[:i]); err == nil {
			t.Errorf("prefix of %d bytes parsed without error", i)
		}
	}
}

func TestHeaderLengthExceedsPacket(t *testing.T) {
	h := &Header{Type: PacketInitial, Version: Version1, DstID: ConnID{1}, SrcID: ConnID{2}, PacketNumberLen: 1}
	b, _ := AppendLongHeader(nil, h, 100) // claims 101 bytes of pn+payload
	b = append(b, make([]byte, 10)...)    // but only 1+10 present
	if _, _, err := ParseLongHeader(b); err == nil {
		t.Error("Length beyond end of packet accepted")
	}
}

func TestPacketNumberLenFor(t *testing.T) {
	cases := []struct {
		pn      uint64
		largest int64
		want    int
	}{
		{0, -1, 1},
		{100, -1, 1},
		{200, 70, 2},
		{0xac5c02, 0xabe8b3, 2}, // RFC 9000 A.2 example: 29823 unacked -> 16 bits
		{1 << 30, -1, 4},
	}
	for _, c := range cases {
		if got := PacketNumberLenFor(c.pn, c.largest); got != c.want {
			t.Errorf("PacketNumberLenFor(%d, %d) = %d want %d", c.pn, c.largest, got, c.want)
		}
	}
}

func TestDecodePacketNumberRFCExample(t *testing.T) {
	// RFC 9000, Appendix A.3: largest 0xa82f30ea, truncated 0x9b32, 2 bytes.
	got := DecodePacketNumber(0xa82f30ea, 0x9b32, 2)
	if got != 0xa82f9b32 {
		t.Errorf("DecodePacketNumber = %#x want 0xa82f9b32", got)
	}
}

func TestPacketNumberEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 5000; i++ {
		largest := rng.Uint64() % (1 << 50)
		// Next packet numbers within the codable window.
		pn := largest + 1 + rng.Uint64()%1000
		pnLen := PacketNumberLenFor(pn, int64(largest))
		enc := appendPacketNumber(nil, pn, pnLen)
		var truncated uint64
		for _, by := range enc {
			truncated = truncated<<8 | uint64(by)
		}
		if got := DecodePacketNumber(int64(largest), truncated, pnLen); got != pn {
			t.Fatalf("pn %d largest %d len %d: decoded %d", pn, largest, pnLen, got)
		}
	}
}

func TestConnIDRandom(t *testing.T) {
	a, b := NewRandomConnID(8), NewRandomConnID(8)
	if len(a) != 8 || len(b) != 8 {
		t.Fatal("wrong length")
	}
	if bytes.Equal(a, b) {
		t.Error("two random connection IDs are identical")
	}
	if NewRandomConnID(0) == nil {
		// zero-length IDs are valid in QUIC
		t.Log("zero-length conn ID is nil slice; acceptable")
	}
}

func TestIsForcedNegotiation(t *testing.T) {
	if !ForcedNegotiationVersion.IsForcedNegotiation() {
		t.Error("ForcedNegotiationVersion not recognized")
	}
	for _, v := range []Version{Version1, VersionDraft29, VersionGoogleQ050} {
		if v.IsForcedNegotiation() {
			t.Errorf("%v wrongly recognized as forced negotiation", v)
		}
	}
	if !Version(0x0a0a0a0a).IsForcedNegotiation() || !Version(0xfafafafa).IsForcedNegotiation() {
		t.Error("pattern versions not recognized")
	}
}

func TestVersionStrings(t *testing.T) {
	cases := map[Version]string{
		Version1:            "ietf-01",
		VersionDraft27:      "draft-27",
		VersionDraft29:      "draft-29",
		VersionGoogleQ050:   "Q050",
		VersionGoogleT051:   "T051",
		VersionMvfst1:       "mvfst-1",
		VersionMvfstExp:     "mvfst-e",
		Version(0x1a2a3a4a): "0x1a2a3a4a",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#x.String() = %q want %q", uint32(v), got, want)
		}
		if want[0] != '0' { // skip hex literals
			back, ok := ParseVersionName(want)
			if !ok || back != v {
				t.Errorf("ParseVersionName(%q) = %v,%v want %v", want, back, ok, v)
			}
		}
	}
	if _, ok := ParseVersionName("nonsense"); ok {
		t.Error("ParseVersionName accepted nonsense")
	}
}

func TestDraftNumber(t *testing.T) {
	if VersionDraft29.DraftNumber() != 29 || VersionDraft34.DraftNumber() != 34 {
		t.Error("draft numbers wrong")
	}
	if Version1.DraftNumber() != 0 || VersionGoogleQ050.DraftNumber() != 0 {
		t.Error("non-draft versions should report 0")
	}
}

// TestLongHeaderPropertyRoundTrip drives the header codec with random
// connection IDs, tokens and types via testing/quick.
func TestLongHeaderPropertyRoundTrip(t *testing.T) {
	f := func(dcidLen, scidLen, tokenLen uint8, typSel uint8, pnLenSel uint8, version uint32) bool {
		typ := []PacketType{PacketInitial, PacketHandshake, Packet0RTT}[typSel%3]
		h := &Header{
			Type:            typ,
			Version:         Version(version | 1), // non-zero
			DstID:           NewRandomConnID(int(dcidLen % 21)),
			SrcID:           NewRandomConnID(int(scidLen % 21)),
			PacketNumber:    0x3f,
			PacketNumberLen: int(pnLenSel%4) + 1,
		}
		if typ == PacketInitial {
			h.Token = bytes.Repeat([]byte{0xab}, int(tokenLen%64))
		}
		payload := make([]byte, 32)
		b, pnOff := AppendLongHeader(nil, h, len(payload))
		b = append(b, payload...)
		got, n, err := ParseLongHeader(b)
		if err != nil || n != pnOff {
			return false
		}
		if got.Type != typ || got.Version != h.Version {
			return false
		}
		if !bytes.Equal(got.DstID, h.DstID) || !bytes.Equal(got.SrcID, h.SrcID) {
			return false
		}
		if typ == PacketInitial && len(h.Token) > 0 && !bytes.Equal(got.Token, h.Token) {
			return false
		}
		return got.Length == uint64(h.PacketNumberLen+len(payload))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParseLongHeaderFuzzNoPanic feeds mutated headers to the parser.
func TestParseLongHeaderFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	h := &Header{Type: PacketInitial, Version: Version1,
		DstID: NewRandomConnID(8), SrcID: NewRandomConnID(8),
		Token: []byte("tok"), PacketNumber: 7, PacketNumberLen: 2}
	base, _ := AppendLongHeader(nil, h, 64)
	base = append(base, make([]byte, 64)...)
	for i := 0; i < 10000; i++ {
		b := append([]byte(nil), base...)
		for j := 0; j < 1+rng.IntN(5); j++ {
			b[rng.IntN(len(b))] = byte(rng.Uint32())
		}
		b = b[:1+rng.IntN(len(b))]
		ParseLongHeader(b) // must not panic
		if len(b) > 9 {
			ParseShortHeader(b, 8)
		}
	}
}
