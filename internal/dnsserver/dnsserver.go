// Package dnsserver implements the authoritative DNS server for the
// simulated Internet. It answers A, AAAA, CNAME, TXT and HTTPS/SVCB
// queries over UDP from an in-memory zone, playing the role the
// public DNS hierarchy (resolved through MassDNS + Unbound) plays in
// the paper's measurement setup.
package dnsserver

import (
	"net"
	"net/netip"
	"strings"
	"sync"

	"quicscan/internal/dnswire"
)

// Zone is a thread-safe set of resource records keyed by lower-case
// FQDN (no trailing dot).
//
// A simulated Internet's zone is tens of thousands of A and AAAA
// records that live as long as the process, so it is stored for the
// garbage collector rather than for the wire: one map from each name to
// its first record, the records themselves in one pointer-free slice
// chained per name, and whole dnswire.Records only for what an address
// cannot say (HTTPS, CNAME, TXT).
type Zone struct {
	mu     sync.RWMutex
	first  map[string]int32 // canonical name → its first record in rrs
	rrs    []zoneRecord
	others []dnswire.Record // the records no zoneRecord can hold
}

// zoneRecord is one record of a Zone. An A or AAAA record is held whole;
// any other is the index of a dnswire.Record in Zone.others.
type zoneRecord struct {
	addr  [16]byte // the address, As16; an IPv4 one in the last four bytes
	ttl   uint32
	next  int32 // the name's next record in Zone.rrs; -1 ends the chain
	other int32 // index into Zone.others, or -1 for an address record
	typ   uint16
	class uint16
	bits  uint8 // the address's BitLen: 32, 128, or 0 for none
}

// NewZone creates an empty zone.
func NewZone() *Zone {
	return &Zone{first: make(map[string]int32)}
}

// Add inserts a record. The record's Name is canonicalized.
func (z *Zone) Add(rr dnswire.Record) {
	name := canonical(rr.Name)
	rr.Name = name
	if rr.Class == 0 {
		rr.Class = dnswire.ClassINET
	}
	if rr.TTL == 0 {
		rr.TTL = 300
	}
	zr := zoneRecord{ttl: rr.TTL, next: -1, other: -1, typ: rr.Type, class: rr.Class}
	z.mu.Lock()
	defer z.mu.Unlock()
	if isAddressOnly(rr) {
		zr.addr, zr.bits = rr.Addr.As16(), uint8(rr.Addr.BitLen())
	} else {
		zr.other = int32(len(z.others))
		z.others = append(z.others, rr)
	}
	i := int32(len(z.rrs))
	z.rrs = append(z.rrs, zr)
	j, ok := z.first[name]
	if !ok {
		z.first[name] = i
		return
	}
	for z.rrs[j].next >= 0 {
		j = z.rrs[j].next
	}
	z.rrs[j].next = i
}

// isAddressOnly reports whether a zoneRecord holds all of rr: an A or
// AAAA record with nothing but an address, and no IPv6 zone.
func isAddressOnly(rr dnswire.Record) bool {
	return (rr.Type == dnswire.TypeA || rr.Type == dnswire.TypeAAAA) && rr.Addr.Zone() == "" &&
		rr.Target == "" && rr.TXT == nil && rr.Priority == 0 && rr.Params == nil && rr.RawData == nil
}

// lookup returns records of the given type for a name, following one
// level of CNAME indirection. The returned slice includes the CNAME
// record itself when followed, mirroring real responses.
func (z *Zone) lookup(name string, qtype uint16) (answers []dnswire.Record, found bool) {
	name = canonical(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	first, ok := z.first[name]
	if !ok {
		return nil, false
	}
	if n := z.count(first, qtype); n > 0 {
		return z.appendMatches(make([]dnswire.Record, 0, n), name, first, qtype), true
	}
	// Follow the name's first CNAME.
	for i := first; i >= 0; i = z.rrs[i].next {
		if z.rrs[i].typ != dnswire.TypeCNAME {
			continue
		}
		cname := z.record(name, i)
		target := canonical(cname.Target)
		tfirst, ok := z.first[target]
		if !ok {
			tfirst = -1 // an empty chain
		}
		answers = append(make([]dnswire.Record, 0, 1+z.count(tfirst, qtype)), cname)
		return z.appendMatches(answers, target, tfirst, qtype), true
	}
	return nil, true
}

// count is the number of records of type qtype in the chain from i.
func (z *Zone) count(i int32, qtype uint16) int {
	n := 0
	for ; i >= 0; i = z.rrs[i].next {
		if z.rrs[i].typ == qtype {
			n++
		}
	}
	return n
}

// appendMatches appends name's records of type qtype, the chain from i.
func (z *Zone) appendMatches(answers []dnswire.Record, name string, i int32, qtype uint16) []dnswire.Record {
	for ; i >= 0; i = z.rrs[i].next {
		if z.rrs[i].typ == qtype {
			answers = append(answers, z.record(name, i))
		}
	}
	return answers
}

// record rebuilds the dnswire.Record that Add stored as rrs[i].
func (z *Zone) record(name string, i int32) dnswire.Record {
	zr := &z.rrs[i]
	if zr.other >= 0 {
		return z.others[zr.other]
	}
	rr := dnswire.Record{Name: name, Type: zr.typ, Class: zr.class, TTL: zr.ttl}
	switch zr.bits {
	case 32:
		rr.Addr = netip.AddrFrom4([4]byte(zr.addr[12:]))
	case 128:
		rr.Addr = netip.AddrFrom16(zr.addr)
	}
	return rr
}

func canonical(name string) string {
	return strings.ToLower(strings.TrimSuffix(name, "."))
}

// Server answers DNS queries on a PacketConn.
type Server struct {
	zone  *Zone
	pconn net.PacketConn
	done  chan struct{}
	once  sync.Once
}

// pushConn is a socket that calls its owner with each datagram instead
// of being read (simnet's); its contract is simnet.PacketConn.Serve's.
type pushConn interface {
	Serve(handler func(query []byte, from netip.AddrPort), onClose func()) error
}

// Serve starts answering queries; it returns immediately. A socket
// that pushes its datagrams is answered on the sender's goroutine; any
// other is read by a goroutine of the server's.
func Serve(pconn net.PacketConn, zone *Zone) *Server {
	s := &Server{zone: zone, pconn: pconn, done: make(chan struct{})}
	if ps, ok := pconn.(pushConn); ok {
		if ps.Serve(s.serveDatagram, func() { s.Close() }) != nil {
			s.Close() // the socket is already closed, as a failing read would find
		}
		return s
	}
	go s.loop()
	return s
}

// Close stops the server.
func (s *Server) Close() error {
	s.once.Do(func() { close(s.done) })
	return s.pconn.Close()
}

func (s *Server) loop() {
	buf := make([]byte, 65536)
	for {
		n, from, err := s.pconn.ReadFrom(buf)
		if err != nil {
			select {
			case <-s.done:
			default:
				s.Close()
			}
			return
		}
		resp := s.handle(buf[:n])
		if resp != nil {
			s.pconn.WriteTo(resp, from)
		}
	}
}

// serveDatagram answers one query a pushing socket hands over.
func (s *Server) serveDatagram(query []byte, from netip.AddrPort) {
	if resp := s.handle(query); resp != nil {
		s.pconn.WriteTo(resp, net.UDPAddrFromAddrPort(from))
	}
}

// handle builds the wire response for one query (nil to drop).
func (s *Server) handle(query []byte) []byte {
	q, err := dnswire.Parse(query)
	if err != nil || q.Header.Response || len(q.Questions) == 0 {
		return nil
	}
	question := q.Questions[0]
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID:                 q.Header.ID,
			Response:           true,
			Authoritative:      true,
			RecursionDesired:   q.Header.RecursionDesired,
			RecursionAvailable: true,
		},
		Questions: q.Questions[:1],
	}
	if question.Class != dnswire.ClassINET {
		resp.Header.RCode = dnswire.RCodeRefused
	} else {
		answers, found := s.zone.lookup(question.Name, question.Type)
		switch {
		case !found:
			resp.Header.RCode = dnswire.RCodeNXDomain
		default:
			resp.Answers = answers // empty answer = NODATA (RCode 0)
		}
	}
	out, err := resp.Marshal()
	if err != nil {
		resp.Answers = nil
		resp.Header.RCode = dnswire.RCodeServFail
		out, _ = resp.Marshal()
	}
	return out
}
