package dnswire

import (
	"math/rand/v2"
	"net/netip"
	"reflect"
	"testing"
)

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	b, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return got
}

func TestQueryRoundTrip(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 0x1234, RecursionDesired: true},
		Questions: []Question{{Name: "www.example.com", Type: TypeHTTPS, Class: ClassINET}},
	}
	got := roundTrip(t, m)
	if got.Header.ID != 0x1234 || !got.Header.RecursionDesired || got.Header.Response {
		t.Errorf("header = %+v", got.Header)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "www.example.com" || got.Questions[0].Type != TypeHTTPS {
		t.Errorf("questions = %+v", got.Questions)
	}
}

func TestARecordRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{ID: 1, Response: true, Authoritative: true},
		Answers: []Record{
			{Name: "a.test", Type: TypeA, TTL: 300, Addr: mustAddr(t, "192.0.2.7")},
			{Name: "a.test", Type: TypeAAAA, TTL: 300, Addr: mustAddr(t, "2001:db8::7")},
			{Name: "alias.test", Type: TypeCNAME, TTL: 60, Target: "a.test"},
			{Name: "txt.test", Type: TypeTXT, TTL: 60, TXT: []string{"hello", "world"}},
		},
	}
	got := roundTrip(t, m)
	if len(got.Answers) != 4 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	if got.Answers[0].Addr != mustAddr(t, "192.0.2.7") {
		t.Errorf("A = %v", got.Answers[0].Addr)
	}
	if got.Answers[1].Addr != mustAddr(t, "2001:db8::7") {
		t.Errorf("AAAA = %v", got.Answers[1].Addr)
	}
	if got.Answers[2].Target != "a.test" {
		t.Errorf("CNAME = %v", got.Answers[2].Target)
	}
	if !reflect.DeepEqual(got.Answers[3].TXT, []string{"hello", "world"}) {
		t.Errorf("TXT = %v", got.Answers[3].TXT)
	}
}

func TestHTTPSRecordRoundTrip(t *testing.T) {
	rr := Record{
		Name:     "cdn.example.com",
		Type:     TypeHTTPS,
		TTL:      3600,
		Priority: 1,
		Target:   "",
		Params: []SvcParamValue{
			{Key: SvcParamALPN, ALPN: []string{"h3", "h3-29", "h2"}},
			{Key: svcParamPort, Port: 443},
			{Key: SvcParamIPv4Hint, Hints: []netip.Addr{mustAddr(t, "192.0.2.1"), mustAddr(t, "192.0.2.2")}},
			{Key: SvcParamIPv6Hint, Hints: []netip.Addr{mustAddr(t, "2001:db8::1")}},
		},
	}
	m := &Message{Header: Header{ID: 7, Response: true}, Answers: []Record{rr}}
	got := roundTrip(t, m)
	a := got.Answers[0]
	if a.Priority != 1 || a.Target != "" || a.Type != TypeHTTPS {
		t.Errorf("record = %+v", a)
	}
	if !reflect.DeepEqual(a.Params, rr.Params) {
		t.Errorf("params:\n got %+v\nwant %+v", a.Params, rr.Params)
	}
}

func TestAliasModeHTTPS(t *testing.T) {
	rr := Record{Name: "example.com", Type: TypeHTTPS, TTL: 60, Priority: 0, Target: "cdn.example.net"}
	m := &Message{Header: Header{Response: true}, Answers: []Record{rr}}
	got := roundTrip(t, m)
	if got.Answers[0].Priority != 0 || got.Answers[0].Target != "cdn.example.net" {
		t.Errorf("alias record = %+v", got.Answers[0])
	}
}

func TestUnknownSvcParamPreserved(t *testing.T) {
	rr := Record{
		Name: "x.test", Type: TypeHTTPS, Priority: 1,
		Params: []SvcParamValue{{Key: 0x1234, Raw: []byte{9, 9, 9}}},
	}
	m := &Message{Answers: []Record{rr}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.Answers[0].Params[0].Raw, []byte{9, 9, 9}) {
		t.Errorf("raw param = %+v", got.Answers[0].Params)
	}
}

func TestNameCompressionParsing(t *testing.T) {
	// Hand-built message: question www.example.com A, answer uses a
	// compression pointer to offset 12.
	var b []byte
	b = appendUint16(b, 42)     // ID
	b = appendUint16(b, 0x8180) // response, RD, RA
	b = appendUint16(b, 1)      // QD
	b = appendUint16(b, 1)      // AN
	b = appendUint16(b, 0)
	b = appendUint16(b, 0)
	b, _ = appendName(b, "www.example.com")
	b = appendUint16(b, TypeA)
	b = appendUint16(b, ClassINET)
	// Answer with pointer name 0xc00c.
	b = append(b, 0xc0, 0x0c)
	b = appendUint16(b, TypeA)
	b = appendUint16(b, ClassINET)
	b = appendUint32(b, 300)
	b = appendUint16(b, 4)
	b = append(b, 192, 0, 2, 55)

	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Answers[0].Name != "www.example.com" {
		t.Errorf("compressed name = %q", m.Answers[0].Name)
	}
	if m.Answers[0].Addr != netip.AddrFrom4([4]byte{192, 0, 2, 55}) {
		t.Errorf("addr = %v", m.Answers[0].Addr)
	}
}

func TestCompressionLoopRejected(t *testing.T) {
	var b []byte
	b = append(b, make([]byte, 12)...)
	b[5] = 1 // one question
	// Name that points at itself.
	b = append(b, 0xc0, 12)
	b = append(b, 0, 1, 0, 1)
	if _, err := Parse(b); err == nil {
		t.Error("self-referential compression accepted")
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 11),
	}
	for _, b := range cases {
		if _, err := Parse(b); err == nil {
			t.Errorf("Parse(%x) succeeded", b)
		}
	}
	// Truncated fuzzing: valid message cut at every length must error
	// or parse, never panic.
	full := httpsAnswer(t)
	for i := 0; i < len(full); i++ {
		Parse(full[:i])
	}
}

// httpsAnswer is a marshalled response with one HTTPS record: the
// message the truncation cases and FuzzParse's corpus are cut from.
func httpsAnswer(tb testing.TB) []byte {
	m := &Message{
		Header:    Header{ID: 9, Response: true},
		Questions: []Question{{Name: "q.test", Type: TypeHTTPS, Class: ClassINET}},
		Answers: []Record{{
			Name: "q.test", Type: TypeHTTPS, Priority: 1,
			Params: []SvcParamValue{{Key: SvcParamALPN, ALPN: []string{"h3"}}},
		}},
	}
	full, err := m.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return full
}

func TestParseFuzzRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 3000; i++ {
		b := make([]byte, rng.IntN(80))
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		Parse(b) // must not panic
	}
}

func TestBadRecordsRejectedOnMarshal(t *testing.T) {
	cases := []Record{
		{Name: "x", Type: TypeA, Addr: mustAddr(t, "2001:db8::1")},
		{Name: "x", Type: TypeAAAA, Addr: mustAddr(t, "1.2.3.4")},
		{Name: strings65(), Type: TypeA, Addr: mustAddr(t, "1.2.3.4")},
		{Name: "x", Type: TypeHTTPS, Params: []SvcParamValue{{Key: SvcParamIPv4Hint, Hints: []netip.Addr{mustAddr(t, "::1")}}}},
	}
	for i, rr := range cases {
		m := &Message{Answers: []Record{rr}}
		if _, err := m.Marshal(); err == nil {
			t.Errorf("case %d marshalled", i)
		}
	}
}

func strings65() string {
	b := make([]byte, 64)
	for i := range b {
		b[i] = 'a'
	}
	return string(b) + ".com"
}

func TestTypeName(t *testing.T) {
	if TypeName(TypeHTTPS) != "HTTPS" || TypeName(TypeSVCB) != "SVCB" || TypeName(999) != "TYPE999" {
		t.Error("type names wrong")
	}
}
