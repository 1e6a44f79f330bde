package dnsclient

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/dnswire"
	"quicscan/internal/simnet"
)

// flakyServer answers queries but drops the first n.
type flakyServer struct {
	pc    net.PacketConn
	drops atomic.Int32
}

func startFlaky(t *testing.T, dropFirst int32) *flakyServer {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &flakyServer{pc: pc}
	s.drops.Store(dropFirst)
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if s.drops.Add(-1) >= 0 {
				continue // drop
			}
			q, err := dnswire.Parse(buf[:n])
			if err != nil || len(q.Questions) == 0 {
				continue
			}
			resp := &dnswire.Message{
				Header:    dnswire.Header{ID: q.Header.ID, Response: true},
				Questions: q.Questions,
				Answers: []dnswire.Record{{
					Name: q.Questions[0].Name, Type: dnswire.TypeA, TTL: 60,
					Addr: netip.MustParseAddr("192.0.2.1"),
				}},
			}
			out, _ := resp.Marshal()
			pc.WriteTo(out, from)
		}
	}()
	return s
}

func TestRetriesRecoverFromLoss(t *testing.T) {
	s := startFlaky(t, 2) // first two queries vanish
	cl := &Client{Server: s.pc.LocalAddr(), Timeout: 200 * time.Millisecond, Retries: 3}
	m, err := cl.Query(context.Background(), "retry.test", dnswire.TypeA)
	if err != nil {
		t.Fatalf("query failed despite retries: %v", err)
	}
	if len(m.Answers) != 1 {
		t.Errorf("answers = %+v", m.Answers)
	}
}

func TestQueryTimesOutEventually(t *testing.T) {
	s := startFlaky(t, 1<<30) // drops everything
	cl := &Client{Server: s.pc.LocalAddr(), Timeout: 100 * time.Millisecond, Retries: 1}
	start := time.Now()
	_, err := cl.Query(context.Background(), "never.test", dnswire.TypeA)
	if err == nil {
		t.Fatal("query succeeded against a black hole")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("retries took too long")
	}
}

func TestContextCancellation(t *testing.T) {
	s := startFlaky(t, 1<<30)
	cl := &Client{Server: s.pc.LocalAddr(), Timeout: 5 * time.Second, Retries: 0}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := cl.Query(ctx, "cancel.test", dnswire.TypeA)
	if err == nil {
		t.Fatal("query ignored context cancellation")
	}
}

func TestMismatchedIDIgnored(t *testing.T) {
	// A server that echoes a wrong transaction ID first, then stops:
	// the client must not accept the forged response.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Parse(buf[:n])
			if err != nil {
				continue
			}
			resp := &dnswire.Message{
				Header:    dnswire.Header{ID: q.Header.ID ^ 0xffff, Response: true},
				Questions: q.Questions,
			}
			out, _ := resp.Marshal()
			pc.WriteTo(out, from)
		}
	}()
	cl := &Client{Server: pc.LocalAddr(), Timeout: 150 * time.Millisecond, Retries: 1}
	if _, err := cl.Query(context.Background(), "forged.test", dnswire.TypeA); err == nil {
		t.Error("client accepted a response with the wrong transaction ID")
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Records: []dnswire.Record{
		{Type: dnswire.TypeA, Addr: netip.MustParseAddr("192.0.2.1")},
		{Type: dnswire.TypeAAAA, Addr: netip.MustParseAddr("2001:db8::1")},
		{Type: dnswire.TypeHTTPS, Priority: 1},
		{Type: dnswire.TypeHTTPS, Priority: 0, Target: "alias.test"}, // alias mode: excluded
		{Type: dnswire.TypeCNAME, Target: "x"},
	}}
	if got := r.Addrs(); len(got) != 2 {
		t.Errorf("addrs = %v", got)
	}
	if got := r.HTTPSRecords(); len(got) != 1 {
		t.Errorf("https records = %v", got)
	}
}

// simResolver is a scripted DNS server on a simnet: handle sees every
// query and answers through whichever socket it likes.
type simResolver struct {
	net    *simnet.Network
	server *simnet.PacketConn // the address clients are pointed at
	other  *simnet.PacketConn // a bystander that can forge replies
	dials  atomic.Int32
}

func startSimResolver(t *testing.T, handle func(r *simResolver, q *dnswire.Message, from net.Addr)) *simResolver {
	t.Helper()
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	r := &simResolver{net: n}
	var err error
	if r.server, err = n.ListenUDP(netip.MustParseAddrPort("192.0.2.53:53")); err != nil {
		t.Fatal(err)
	}
	if r.other, err = n.ListenUDP(netip.MustParseAddrPort("192.0.2.66:53")); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 4096)
		for {
			nn, from, err := r.server.ReadFrom(buf)
			if err != nil {
				return
			}
			if q, err := dnswire.Parse(buf[:nn]); err == nil && len(q.Questions) == 1 {
				handle(r, q, from)
			}
		}
	}()
	return r
}

func (r *simResolver) client(timeout time.Duration, retries int) *Client {
	return &Client{
		Server:  r.server.LocalAddr(),
		Timeout: timeout,
		Retries: retries,
		DialPacket: func() (net.PacketConn, error) {
			r.dials.Add(1)
			return r.net.DialUDP()
		},
	}
}

// answer builds a response to question q under the given ID.
func answer(id uint16, q dnswire.Question, addr string) []byte {
	m := &dnswire.Message{
		Header:    dnswire.Header{ID: id, Response: true},
		Questions: []dnswire.Question{q},
		Answers:   []dnswire.Record{{Name: q.Name, Type: dnswire.TypeA, TTL: 60, Addr: netip.MustParseAddr(addr)}},
	}
	out, err := m.Marshal()
	if err != nil {
		panic(err)
	}
	return out
}

// TestStrayRepliesIgnored: a reply counts only if it comes from the
// server, carries the query's ID and echoes its question (RFC 5452).
func TestStrayRepliesIgnored(t *testing.T) {
	const good, forged = "192.0.2.1", "203.0.113.9"
	r := startSimResolver(t, func(r *simResolver, q *dnswire.Message, from net.Addr) {
		id, question := q.Header.ID, q.Questions[0]
		elsewhere := dnswire.Question{Name: "elsewhere.test", Type: question.Type, Class: question.Class}
		r.other.WriteTo(answer(id, question, forged), from)         // right reply, wrong source
		r.server.WriteTo(answer(id^0xffff, question, forged), from) // stale ID
		r.server.WriteTo(answer(id, elsewhere, forged), from)       // another name's answer
		r.server.WriteTo(answer(id, question, good), from)
	})
	ok, retries := mOutcomeOK.Value(), mRetries.Value()
	m, err := r.client(time.Second, 1).Query(context.Background(), "Wanted.Test.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0].Addr.String() != good {
		t.Errorf("answers = %+v, want the genuine %s", m.Answers, good)
	}
	if d := mOutcomeOK.Value() - ok; d != 1 {
		t.Errorf("ok outcomes moved by %d, want 1", d)
	}
	if d := mRetries.Value() - retries; d != 0 {
		t.Errorf("the strays cost %d retries, want 0", d)
	}
}

// TestLateReplyOnLeasedSocket: a batch worker keeps its socket, so the
// reply to a query that timed out arrives while the next one waits. It
// must not be taken for the answer — not even if the IDs collide.
func TestLateReplyOnLeasedSocket(t *testing.T) {
	const good, late = "192.0.2.1", "198.51.100.66"
	var slowID atomic.Uint32
	var slowQ atomic.Pointer[dnswire.Question]
	r := startSimResolver(t, func(r *simResolver, q *dnswire.Message, from net.Addr) {
		id, question := q.Header.ID, q.Questions[0]
		if question.Name == "slow.test" {
			slowID.Store(uint32(id))
			slowQ.Store(&question)
			return // answered too late, below
		}
		r.server.WriteTo(answer(uint16(slowID.Load()), *slowQ.Load(), late), from)
		r.server.WriteTo(answer(id, *slowQ.Load(), late), from) // the 1-in-65536 ID collision
		r.server.WriteTo(answer(id, question, good), from)
	})
	cl := r.client(30*time.Millisecond, 1)
	res := cl.ResolveBatch(context.Background(), []string{"slow.test", "fast.test"}, dnswire.TypeA, 1)
	if res[0].Err == nil {
		t.Errorf("slow.test resolved to %v; its reply was withheld", res[0].Addrs())
	}
	if res[1].Err != nil || len(res[1].Addrs()) != 1 || res[1].Addrs()[0] != good {
		t.Errorf("fast.test = %v, %v; want %s", res[1].Addrs(), res[1].Err, good)
	}
	if d := r.dials.Load(); d != 1 {
		t.Errorf("one worker dialled %d sockets, want 1", d)
	}
}

// TestBatchLeasesOneSocketPerWorker: socket set-up is paid per worker,
// not per query, and an idle worker opens nothing.
func TestBatchLeasesOneSocketPerWorker(t *testing.T) {
	r := startSimResolver(t, func(r *simResolver, q *dnswire.Message, from net.Addr) {
		r.server.WriteTo(answer(q.Header.ID, q.Questions[0], "192.0.2.1"), from)
	})
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("n%d.test", i)
	}
	cl := r.client(time.Second, 1)
	for _, res := range cl.ResolveBatch(context.Background(), names, dnswire.TypeA, 8) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Name, res.Err)
		}
	}
	if d := r.dials.Load(); d < 1 || d > 8 {
		t.Errorf("8 workers dialled %d sockets for 200 names, want 1..8", d)
	}
	if open := r.net.UDPSocketCount(); open != 2 {
		t.Errorf("%d sockets still bound after the batch, want the resolver's 2", open)
	}
	r.dials.Store(0)
	cl.ResolveBatch(context.Background(), names[:1], dnswire.TypeA, 8)
	if d := r.dials.Load(); d != 1 {
		t.Errorf("one name dialled %d sockets, want 1", d)
	}
}
