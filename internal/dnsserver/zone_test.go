package dnsserver

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"quicscan/internal/dnswire"
)

// refZone is the zone as it was first written, a slice of whole records
// per name: the semantics Zone keeps.
type refZone map[string][]dnswire.Record

func (r refZone) add(rr dnswire.Record) {
	rr.Name = canonical(rr.Name)
	if rr.Class == 0 {
		rr.Class = dnswire.ClassINET
	}
	if rr.TTL == 0 {
		rr.TTL = 300
	}
	r[rr.Name] = append(r[rr.Name], rr)
}

func (r refZone) lookup(name string, qtype uint16) (answers []dnswire.Record, found bool) {
	rrs, ok := r[canonical(name)]
	if !ok {
		return nil, false
	}
	for _, rr := range rrs {
		if rr.Type == qtype {
			answers = append(answers, rr)
		}
	}
	if len(answers) > 0 {
		return answers, true
	}
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeCNAME {
			answers = append(answers, rr)
			for _, target := range r[canonical(rr.Target)] {
				if target.Type == qtype {
					answers = append(answers, target)
				}
			}
			break
		}
	}
	return answers, true
}

// fuzzProgram reads a sequence of zone operations from fuzz input.
type fuzzProgram []byte

func (p *fuzzProgram) byte() byte {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return b
}

var fuzzNames = []string{"www.example.com", "alias.example.com", "Mixed.Example.COM", "x.test", "y.x.test"}

// name picks a name in one of four spellings of it: as listed or upper
// case, with or without a trailing dot.
func (p *fuzzProgram) name() string {
	b := p.byte()
	name := fuzzNames[int(b&0xf)%len(fuzzNames)]
	if b&0x10 != 0 {
		name = strings.ToUpper(name)
	}
	if b&0x20 != 0 {
		name += "."
	}
	return name
}

func (p *fuzzProgram) addr4() netip.Addr {
	return netip.AddrFrom4([4]byte{p.byte(), p.byte(), p.byte(), p.byte()})
}

// FuzzZone runs random sequences of Add and Lookup against Zone and
// refZone, which must answer alike, and sends each lookup, and the input
// itself, through Server.handle as a query: no panic, and every reply
// parses and echoes the query's ID.
func FuzzZone(f *testing.F) {
	f.Add([]byte{0, 0, 0, 192, 0, 2, 1, 4, 0, 0})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 10, 1, 2, 3, 4, 1, 0x12, 7, 0x80 | 1, 0x20, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 10, 0, 0, 1, 4, 0x21, 0})
	f.Add([]byte{2, 0, 5, 1, 1, 1, 1, 4, 0x30, 2, 3, 0x33, 0, 0x13, 4, 0x13, 4, 0x23, 3})
	// A CNAME whose target is spelt "WWW.EXAMPLE.COM.", then an A query
	// for the alias.
	f.Add([]byte{0, 0, 48, 48, 48, 48, 48, 3, 1, 48, 0x30, 4, 0x31, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		z, ref := NewZone(), refZone{}
		srv := &Server{zone: z}
		qtypes := []uint16{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeHTTPS, dnswire.TypeCNAME, dnswire.TypeTXT}
		for p := fuzzProgram(data); len(p) > 0; {
			op := p.byte()
			rr := dnswire.Record{Name: p.name(), TTL: uint32(p.byte())}
			switch op % 6 {
			case 0:
				rr.Type, rr.Addr = dnswire.TypeA, p.addr4()
			case 1:
				rr.Type = dnswire.TypeAAAA
				if op&0x80 != 0 {
					rr.Addr = netip.AddrFrom16(p.addr4().As16()) // 4-in-6
				} else {
					var a [16]byte
					for i := range a {
						a[i] = p.byte()
					}
					rr.Addr = netip.AddrFrom16(a)
				}
				if op&0x40 != 0 {
					rr.Addr = rr.Addr.WithZone("eth0")
				}
			case 2:
				rr.Type, rr.Priority = dnswire.TypeHTTPS, uint16(p.byte())
				rr.Params = []dnswire.SvcParamValue{
					{Key: dnswire.SvcParamALPN, ALPN: []string{"h3"}},
					{Key: dnswire.SvcParamIPv4Hint, Hints: []netip.Addr{p.addr4()}},
				}
			case 3:
				rr.Type, rr.Target = dnswire.TypeCNAME, p.name()
			default:
				qtype := qtypes[int(rr.TTL)%len(qtypes)]
				got, gotFound := z.lookup(rr.Name, qtype)
				want, wantFound := ref.lookup(rr.Name, qtype)
				if gotFound != wantFound || !reflect.DeepEqual(got, want) {
					t.Fatalf("Lookup(%q, %s) = %+v, %v; want %+v, %v", rr.Name, dnswire.TypeName(qtype), got, gotFound, want, wantFound)
				}
				query, err := (&dnswire.Message{
					Header:    dnswire.Header{ID: uint16(len(p)), RecursionDesired: true},
					Questions: []dnswire.Question{{Name: rr.Name, Type: qtype, Class: dnswire.ClassINET}},
				}).Marshal()
				if err != nil {
					t.Fatal(err)
				}
				checkReply(t, srv, query)
				continue
			}
			z.Add(rr)
			ref.add(rr)
			if z.names() != len(ref) {
				t.Fatalf("names() = %d, want %d", z.names(), len(ref))
			}
		}
		checkReply(t, srv, data)
	})
}

// checkReply sends query through srv: a reply, if there is one, parses
// as a response carrying the query's ID.
func checkReply(t *testing.T, srv *Server, query []byte) {
	t.Helper()
	reply := srv.handle(query)
	if reply == nil {
		return
	}
	m, err := dnswire.Parse(reply)
	if err != nil {
		t.Fatalf("reply to %x does not parse: %v", query, err)
	}
	if id := uint16(query[0])<<8 | uint16(query[1]); !m.Header.Response || m.Header.ID != id {
		t.Fatalf("reply to %x: response %v, ID %d, want ID %d", query, m.Header.Response, m.Header.ID, id)
	}
}

// TestZoneRecordIsPointerFree: the records of a zone are nothing the
// collector has to scan; a string or a netip.Addr (whose zone is a
// pointer) coming back into zoneRecord fails here.
func TestZoneRecordIsPointerFree(t *testing.T) {
	var path func(typ reflect.Type) string
	path = func(typ reflect.Type) string {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			return typ.Kind().String()
		case reflect.Array:
			return path(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if p := path(typ.Field(i).Type); p != "" {
					return typ.Field(i).Name + "." + p
				}
			}
		}
		return ""
	}
	if p := path(reflect.TypeOf(zoneRecord{})); p != "" {
		t.Errorf("zoneRecord holds a pointer: %s", p)
	}
}

// TestLookupAllocatesOnlyAnswers: an A lookup allocates the slice it
// returns and nothing else.
func TestLookupAllocatesOnlyAnswers(t *testing.T) {
	z := testZone(t)
	allocs := testing.AllocsPerRun(100, func() {
		if answers, _ := z.lookup("www.example.com", dnswire.TypeA); len(answers) != 1 {
			t.Fatalf("answers = %+v", answers)
		}
	})
	if allocs > 1 {
		t.Errorf("A lookup allocates %.0f times, want 1 (the answers)", allocs)
	}
}

// TestAddressFormsRoundTrip: an address comes back in the form it was
// added in, an IPv4-mapped AAAA included, and so does a record a
// zoneRecord cannot hold (an address with an IPv6 zone).
func TestAddressFormsRoundTrip(t *testing.T) {
	z := NewZone()
	want := []dnswire.Record{
		{Name: "a.test", Type: dnswire.TypeAAAA, Class: dnswire.ClassINET, TTL: 60, Addr: netip.MustParseAddr("::ffff:192.0.2.1")},
		{Name: "a.test", Type: dnswire.TypeAAAA, Class: 3, TTL: 300, Addr: netip.MustParseAddr("2001:db8::1")},
		{Name: "a.test", Type: dnswire.TypeAAAA, Class: dnswire.ClassINET, TTL: 300, Addr: netip.MustParseAddr("fe80::1%eth0")},
		{Name: "a.test", Type: dnswire.TypeAAAA, Class: dnswire.ClassINET, TTL: 300},
	}
	z.Add(dnswire.Record{Name: "A.test.", Type: dnswire.TypeA, Addr: netip.MustParseAddr("192.0.2.1")})
	for _, rr := range want {
		z.Add(rr)
	}
	got, _ := z.lookup("a.test", dnswire.TypeAAAA)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records came back as\n%+v\nwant\n%+v", got, want)
	}
	a, _ := z.lookup("a.test", dnswire.TypeA)
	if len(a) != 1 || a[0].Addr != netip.MustParseAddr("192.0.2.1") || !a[0].Addr.Is4() {
		t.Errorf("A lookup = %+v", a)
	}
}

// names returns the number of distinct names in the zone.
func (z *Zone) names() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.first)
}
