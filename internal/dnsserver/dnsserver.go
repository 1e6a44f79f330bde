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
type Zone struct {
	mu      sync.RWMutex
	records map[string][]dnswire.Record
}

// NewZone creates an empty zone.
func NewZone() *Zone {
	return &Zone{records: make(map[string][]dnswire.Record)}
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
	z.mu.Lock()
	z.records[name] = append(z.records[name], rr)
	z.mu.Unlock()
}

// Lookup returns records of the given type for a name, following one
// level of CNAME indirection. The returned slice includes the CNAME
// record itself when followed, mirroring real responses.
func (z *Zone) Lookup(name string, qtype uint16) (answers []dnswire.Record, found bool) {
	name = canonical(name)
	z.mu.RLock()
	defer z.mu.RUnlock()
	rrs, ok := z.records[name]
	if !ok {
		return nil, false
	}
	for _, rr := range rrs {
		if rr.Type == qtype {
			answers = append(answers, rr)
		}
	}
	if len(answers) == 0 {
		// Follow CNAME.
		for _, rr := range rrs {
			if rr.Type == dnswire.TypeCNAME {
				answers = append(answers, rr)
				for _, target := range z.records[canonical(rr.Target)] {
					if target.Type == qtype {
						answers = append(answers, target)
					}
				}
				break
			}
		}
	}
	return answers, true
}

// Names returns the number of distinct names in the zone.
func (z *Zone) Names() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.records)
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

// Addr returns the server's listening address.
func (s *Server) Addr() net.Addr { return s.pconn.LocalAddr() }

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
		answers, found := s.zone.Lookup(question.Name, question.Type)
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
