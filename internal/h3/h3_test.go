package h3

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"quicscan/internal/quicwire"
)

func TestPrefixedIntRoundTrip(t *testing.T) {
	for _, prefix := range []int{3, 4, 6, 7, 8} {
		for _, v := range []uint64{0, 1, 5, 30, 31, 32, 127, 128, 16383, 1 << 20} {
			b := appendPrefixedInt(nil, 0, prefix, v)
			got, n, err := parsePrefixedInt(b, prefix)
			if err != nil || got != v || n != len(b) {
				t.Errorf("prefix %d value %d: got %d,%d,%v", prefix, v, got, n, err)
			}
		}
	}
}

func TestPrefixedIntRFC7541Examples(t *testing.T) {
	// RFC 7541, C.1.1: 10 with 5-bit prefix = 0x0a.
	b := appendPrefixedInt(nil, 0, 5, 10)
	if !bytes.Equal(b, []byte{0x0a}) {
		t.Errorf("10/5-bit = %x", b)
	}
	// C.1.2: 1337 with 5-bit prefix = 1f 9a 0a.
	b = appendPrefixedInt(nil, 0, 5, 1337)
	if !bytes.Equal(b, []byte{0x1f, 0x9a, 0x0a}) {
		t.Errorf("1337/5-bit = %x", b)
	}
	got, n, err := parsePrefixedInt([]byte{0x1f, 0x9a, 0x0a}, 5)
	if err != nil || got != 1337 || n != 3 {
		t.Errorf("parse 1337: %d,%d,%v", got, n, err)
	}
}

func TestPrefixedIntProperty(t *testing.T) {
	f := func(v uint64, p uint8) bool {
		prefix := int(p%6) + 3
		v %= 1 << 40
		b := appendPrefixedInt(nil, 0, prefix, v)
		got, n, err := parsePrefixedInt(b, prefix)
		return err == nil && got == v && n == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixedIntErrors(t *testing.T) {
	if _, _, err := parsePrefixedInt(nil, 7); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := parsePrefixedInt([]byte{0x7f, 0x80, 0x80}, 7); err == nil {
		t.Error("unterminated continuation accepted")
	}
	// Overflowing integer.
	b := []byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := parsePrefixedInt(b, 7); err == nil {
		t.Error("overflow accepted")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	cases := [][]HeaderField{
		{
			{Name: ":method", Value: "HEAD"}, // exact static match
			{Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: "www.example.org"}, // name ref
			{Name: ":path", Value: "/"},
			{Name: "user-agent", Value: "qscanner/1.0"},
		},
		{
			{Name: ":status", Value: "200"},
			{Name: "server", Value: "proxygen-bolt"},
			{Name: "alt-svc", Value: `h3-29=":443"; ma=3600`},
			{Name: "x-custom-header", Value: "zzz"}, // literal name
		},
		{
			{Name: ":status", Value: "418"}, // non-static status
		},
		{}, // empty field section
	}
	for i, fields := range cases {
		enc := EncodeHeaders(fields)
		got, err := DecodeHeaders(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(fields) == 0 {
			if len(got) != 0 {
				t.Errorf("case %d: got %v", i, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, fields) {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, got, fields)
		}
	}
}

// TestEncodeHeadersLowerCasesNames: a literal name goes out in lower
// case with the length of what goes out: "İ" is two bytes and "i" one,
// "Ⱥ" two and "ⱥ" three.
func TestEncodeHeadersLowerCasesNames(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"X-Custom-Header", "x-custom-header"},
		{"Server", "server"},
		{"x-İ", "x-i"},
		{"x-Ⱥ", "x-ⱥ"},
	} {
		fields := []HeaderField{{Name: c.name, Value: "v1"}, {Name: ":status", Value: "200"}}
		got, err := DecodeHeaders(EncodeHeaders(fields))
		want := []HeaderField{{Name: c.want, Value: "v1"}, {Name: ":status", Value: "200"}}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("name %q: decoded %+v, %v; want %+v", c.name, got, err, want)
		}
	}
}

func TestStaticLookup(t *testing.T) {
	idx, exact := staticLookup(HeaderField{Name: ":method", Value: "GET"})
	if !exact || idx != 17 {
		t.Errorf("GET: %d %v", idx, exact)
	}
	idx, exact = staticLookup(HeaderField{Name: "server", Value: "nginx"})
	if exact || idx != 92 {
		t.Errorf("server: %d %v", idx, exact)
	}
	idx, _ = staticLookup(HeaderField{Name: "x-nonexistent", Value: ""})
	if idx != -1 {
		t.Errorf("unknown name: %d", idx)
	}
}

func TestDecodeHeadersErrors(t *testing.T) {
	cases := [][]byte{
		nil,                           // missing prefix
		{0x01},                        // RIC != 0 (dynamic table)
		{0x00},                        // missing base
		{0x00, 0x00, 0x80},            // dynamic indexed field line
		{0x00, 0x00, 0xff},            // truncated index
		{0x00, 0x00, 0x40, 0x05, 'h'}, // dynamic name ref
		{0x00, 0x00, 0x2f},            // literal name truncated
	}
	for _, b := range cases {
		if _, err := DecodeHeaders(b); err == nil {
			t.Errorf("DecodeHeaders(%x) succeeded", b)
		}
	}
	// A Huffman literal whose bits are not a valid code must error.
	b := []byte{0x00, 0x00, 0x29, 0xff, 0xff} // literal name, H=1, invalid EOS-like body
	if _, err := DecodeHeaders(b); err == nil {
		t.Error("invalid huffman literal accepted")
	}
}

// TestDecodeHeadersRefusesUpperCaseNames: a literal field name with an
// upper-case letter makes the message malformed (RFC 9114, Section
// 4.2), plain or Huffman-coded; the same line in lower case decodes.
func TestDecodeHeadersRefusesUpperCaseNames(t *testing.T) {
	line := func(name string, huffman bool) []byte {
		first, raw := byte(0x20), []byte(name)
		if huffman {
			first, raw = 0x28, huffmanEncode(name)
		}
		b := appendPrefixedInt([]byte{0, 0}, first, 3, uint64(len(raw)))
		return append(append(b, raw...), 0x01, 'v')
	}
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"server", true},
		{"Server", false},
		{"x-custom-headeR", false},
		{"x-é", true}, // not ours to judge: only A-Z is upper case here
	} {
		for _, huffman := range []bool{false, true} {
			fields, err := DecodeHeaders(line(c.name, huffman))
			if c.ok && (err != nil || len(fields) != 1 || fields[0] != (HeaderField{Name: c.name, Value: "v"})) {
				t.Errorf("name %q (huffman %v): %+v, %v", c.name, huffman, fields, err)
			}
			if !c.ok && err == nil {
				t.Errorf("name %q (huffman %v) decoded to %+v, want an error", c.name, huffman, fields)
			}
		}
	}
}

func TestSettingsRoundTrip(t *testing.T) {
	in := []setting{
		{ID: settingQPACKMaxTableCapacity, Value: 0},
		{ID: settingMaxFieldSectionSize, Value: 65536},
		{ID: 0x21, Value: 123}, // GREASE
	}
	frame := appendSettings(nil, in)
	fr := &frameReader{r: bytes.NewReader(frame)}
	t2, payload, err := fr.next()
	if err != nil || t2 != frameSettings {
		t.Fatalf("frame: %d %v", t2, err)
	}
	got, err := parseSettings(payload)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Errorf("settings = %+v, %v", got, err)
	}
}

func TestFrameReader(t *testing.T) {
	var b []byte
	b = appendFrame(b, frameHeaders, []byte("hdr"))
	b = appendFrame(b, frameData, []byte("body"))
	b = appendFrame(b, 0x21, nil) // unknown/GREASE

	fr := &frameReader{r: bytes.NewReader(b)}
	t1, p1, err := fr.next()
	if err != nil || t1 != frameHeaders || string(p1) != "hdr" {
		t.Fatalf("frame 1: %d %q %v", t1, p1, err)
	}
	t2, p2, err := fr.next()
	if err != nil || t2 != frameData || string(p2) != "body" {
		t.Fatalf("frame 2: %d %q %v", t2, p2, err)
	}
	t3, p3, err := fr.next()
	if err != nil || t3 != 0x21 || len(p3) != 0 {
		t.Fatalf("frame 3: %d %q %v", t3, p3, err)
	}
	if _, _, err := fr.next(); err == nil {
		t.Error("read past end succeeded")
	}
	// Oversized frame.
	huge := appendFrame(nil, frameData, nil)
	huge = huge[:1] // keep type
	huge = appendHugeLen(huge)
	fr = &frameReader{r: bytes.NewReader(huge)}
	if _, _, err := fr.next(); err == nil {
		t.Error("oversized frame accepted")
	}
}

func appendHugeLen(b []byte) []byte {
	return append(b, 0x80, 0x40, 0x00, 0x00) // 4-byte varint ~ 4M
}

func TestParseRequestResponse(t *testing.T) {
	reqFields := []HeaderField{
		{Name: ":method", Value: "HEAD"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "example.com"},
		{Name: ":path", Value: "/index.html"},
		{Name: "user-agent", Value: "test"},
	}
	block := EncodeHeaders(reqFields)
	raw := appendFrame(nil, frameHeaders, block)
	req, err := parseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "HEAD" {
		t.Errorf("req = %+v", req)
	}
	fields, err := DecodeHeaders(raw[len(raw)-len(block):])
	if err != nil || len(fields) != len(reqFields) || fields[3] != (HeaderField{Name: ":path", Value: "/index.html"}) {
		t.Errorf("decoded header block = %+v, %v", fields, err)
	}

	respFields := []HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "server", Value: "LiteSpeed"},
	}
	raw = appendFrame(nil, frameHeaders, EncodeHeaders(respFields))
	raw = appendFrame(raw, frameData, []byte("hello"))
	resp, err := parseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "200" || resp.Header("server") != "LiteSpeed" || string(resp.Body) != "hello" {
		t.Errorf("resp = %+v", resp)
	}
	if _, err := parseResponse([]byte{0x00}); err == nil {
		t.Error("garbage response accepted")
	}
}

// parseSettings decodes a SETTINGS payload. The stack never reads the
// peer's SETTINGS; this is the round trip's reference.
func parseSettings(payload []byte) ([]setting, error) {
	var out []setting
	for len(payload) > 0 {
		id, n, err := quicwire.ParseVarint(payload)
		if err != nil {
			return nil, err
		}
		payload = payload[n:]
		v, n, err := quicwire.ParseVarint(payload)
		if err != nil {
			return nil, err
		}
		payload = payload[n:]
		out = append(out, setting{ID: id, Value: v})
	}
	return out, nil
}
