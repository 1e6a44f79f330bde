// Package dnsclient is the bulk resolver of the tool set (the role
// MassDNS plus a local Unbound plays in the paper): it resolves large
// domain lists for A, AAAA and HTTPS records with a worker pool, one
// socket per worker, per-query timeouts and retries.
package dnsclient

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"quicscan/internal/dnswire"
	"quicscan/internal/listscan"
	"quicscan/internal/telemetry"
)

// Registry metrics for the resolver layer (the dns_* family). The
// per-outcome children are resolved once so the query path does no
// label join per reply.
var (
	mQueries  = telemetry.Default().Counter("dns_queries_total")
	mRetries  = telemetry.Default().Counter("dns_query_retries_total")
	mOutcomes = telemetry.Default().CounterVec("dns_query_outcomes_total", "outcome")

	mOutcomeOK        = mOutcomes.With("ok")
	mOutcomeError     = mOutcomes.With("error")
	mOutcomeCancelled = mOutcomes.With("cancelled")
)

// readBufPool recycles response buffers across sockets: dnswire.Parse
// copies everything it retains, so a buffer is free for reuse as soon
// as its socket is released.
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 65536)
		return &b
	},
}

// Client queries a single DNS server.
type Client struct {
	// Server is the resolver address.
	Server net.Addr
	// DialPacket opens a client socket; defaults to a UDP socket for
	// real networks, and is replaced by the simnet dialer in
	// simulation.
	DialPacket func() (net.PacketConn, error)
	// Timeout per attempt (default 2s).
	Timeout time.Duration
	// Retries per query after the first attempt (default 2).
	Retries int
}

func (c *Client) dial() (net.PacketConn, error) {
	if c.DialPacket != nil {
		return c.DialPacket()
	}
	return net.ListenPacket("udp", ":0")
}

func (c *Client) timeout() time.Duration {
	if c.Timeout == 0 {
		return 2 * time.Second
	}
	return c.Timeout
}

func (c *Client) retries() int {
	if c.Retries == 0 {
		return 2
	}
	return max(c.Retries, 0) // a query always gets its first attempt
}

// socket is a client socket and its read buffer, opened by the first
// query that needs it and kept for every later one: Query holds one
// for its call, a ResolveBatch worker for its lifetime (set-up is paid
// per sending thread, not per probe, as in MassDNS and ZDNS). Because
// queries share it, a reply is accepted only when it matches the
// outstanding query exactly; see accept.
type socket struct {
	pc  net.PacketConn
	buf *[]byte
}

func (s *socket) open(c *Client) error {
	if s.pc != nil {
		return nil
	}
	pc, err := c.dial()
	if err != nil {
		return err
	}
	s.pc = pc
	s.buf = readBufPool.Get().(*[]byte)
	return nil
}

func (s *socket) close() {
	if s.pc == nil {
		return
	}
	s.pc.Close()
	readBufPool.Put(s.buf)
	s.pc, s.buf = nil, nil
}

// Query performs a single DNS query with retries, on a socket of its
// own.
func (c *Client) Query(ctx context.Context, name string, qtype uint16) (*dnswire.Message, error) {
	var s socket
	defer s.close()
	return c.query(ctx, &s, name, qtype)
}

func (c *Client) query(ctx context.Context, s *socket, name string, qtype uint16) (*dnswire.Message, error) {
	mQueries.Inc()
	var lastErr error
	for attempt := 0; attempt <= c.retries(); attempt++ {
		if err := ctx.Err(); err != nil {
			mOutcomeCancelled.Inc()
			return nil, err
		}
		if attempt > 0 {
			mRetries.Inc()
		}
		m, err := c.queryOnce(ctx, s, name, qtype)
		if err == nil {
			mOutcomeOK.Inc()
			return m, nil
		}
		lastErr = err
	}
	mOutcomeError.Inc()
	return nil, lastErr
}

func (c *Client) queryOnce(ctx context.Context, s *socket, name string, qtype uint16) (*dnswire.Message, error) {
	if err := s.open(c); err != nil {
		return nil, err
	}
	var idb [2]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, err
	}
	id := uint16(idb[0])<<8 | uint16(idb[1])
	question := dnswire.Question{Name: name, Type: qtype, Class: dnswire.ClassINET}
	q := &dnswire.Message{
		Header:    dnswire.Header{ID: id, RecursionDesired: true},
		Questions: []dnswire.Question{question},
	}
	wire, err := q.Marshal()
	if err != nil {
		return nil, err
	}
	if _, err := s.pc.WriteTo(wire, c.Server); err != nil {
		s.close() // the next attempt starts from a fresh socket
		return nil, err
	}

	deadline := time.Now().Add(c.timeout())
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	s.pc.SetReadDeadline(deadline)

	buf := *s.buf
	for {
		n, from, err := s.pc.ReadFrom(buf)
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				s.close()
			}
			return nil, fmt.Errorf("dnsclient: query %s/%s: %w", name, dnswire.TypeName(qtype), err)
		}
		if !sameEndpoint(from, c.Server) {
			continue // not from the server we asked
		}
		m, err := dnswire.Parse(buf[:n])
		if err != nil || !accept(m, id, question) {
			continue // corrupt, or the answer to some other query
		}
		return m, nil
	}
}

// accept reports whether m answers the outstanding query (RFC 5452
// section 9.1): a response carrying its ID and echoing its question.
// The socket outlives a query, so a timed-out attempt's late reply
// arrives during a later one and must not be taken for its answer.
func accept(m *dnswire.Message, id uint16, q dnswire.Question) bool {
	if !m.Header.Response || m.Header.ID != id || len(m.Questions) != 1 {
		return false
	}
	got := m.Questions[0]
	return got.Type == q.Type && got.Class == q.Class &&
		strings.EqualFold(got.Name, strings.TrimSuffix(q.Name, "."))
}

// sameEndpoint compares a datagram's source with the configured
// server. A dual-stack socket reports IPv4 peers in IPv4-mapped form,
// which IP.Equal sees through.
func sameEndpoint(a, b net.Addr) bool {
	ua, aok := a.(*net.UDPAddr)
	ub, bok := b.(*net.UDPAddr)
	if aok && bok {
		return ua.Port == ub.Port && ua.IP.Equal(ub.IP)
	}
	return a.Network() == b.Network() && a.String() == b.String()
}

// Result is the outcome of one batch query.
type Result struct {
	Name string
	// Records are the answer records (nil on error or NXDOMAIN).
	Records []dnswire.Record
	Err     error
}

// ErrNXDomain marks names that do not exist.
var ErrNXDomain = errors.New("dnsclient: NXDOMAIN")

// ResolveBatch resolves every name for qtype on workers goroutines
// (default 64), each with one leased socket, and returns the results in
// input order.
func (c *Client) ResolveBatch(ctx context.Context, names []string, qtype uint16, workers int) []Result {
	return c.ResolveStream(ctx, names, qtype, workers, nil)
}

// ResolveStream is ResolveBatch with the results also handed to emit,
// in input order and while later names are still in flight
// (listscan.Run's contract). A name not yet started when ctx ends is
// not queried: its result carries the context error.
func (c *Client) ResolveStream(ctx context.Context, names []string, qtype uint16, workers int, emit func([]Result)) []Result {
	if workers <= 0 {
		workers = listscan.DefaultWorkers
	}
	socks := make([]socket, workers)
	defer func() {
		for i := range socks {
			socks[i].close()
		}
	}()
	return listscan.Run(ctx, workers, len(names),
		func(w, i int) Result { return c.resolveOne(ctx, &socks[w], names[i], qtype) },
		func(i int, err error) Result { return Result{Name: names[i], Err: err} },
		emit)
}

func (c *Client) resolveOne(ctx context.Context, s *socket, name string, qtype uint16) Result {
	r := Result{Name: name}
	m, err := c.query(ctx, s, name, qtype)
	if err != nil {
		r.Err = err
		return r
	}
	switch m.Header.RCode {
	case dnswire.RCodeSuccess:
		r.Records = m.Answers
	case dnswire.RCodeNXDomain:
		r.Err = ErrNXDomain
	default:
		r.Err = fmt.Errorf("dnsclient: rcode %d for %s", m.Header.RCode, name)
	}
	return r
}

// Addrs extracts the A/AAAA addresses from a result.
func (r *Result) Addrs() []string {
	var out []string
	for _, rr := range r.Records {
		if rr.Type == dnswire.TypeA || rr.Type == dnswire.TypeAAAA {
			out = append(out, rr.Addr.String())
		}
	}
	return out
}

// HTTPSRecords extracts service-mode HTTPS records (priority > 0).
func (r *Result) HTTPSRecords() []dnswire.Record {
	var out []dnswire.Record
	for _, rr := range r.Records {
		if (rr.Type == dnswire.TypeHTTPS || rr.Type == dnswire.TypeSVCB) && rr.Priority > 0 {
			out = append(out, rr)
		}
	}
	return out
}
