package dnsserver

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"quicscan/internal/dnsclient"
	"quicscan/internal/dnswire"
	"quicscan/internal/simnet"
)

func testZone(t *testing.T) *Zone {
	t.Helper()
	z := NewZone()
	z.Add(dnswire.Record{Name: "www.example.com", Type: dnswire.TypeA, Addr: netip.MustParseAddr("192.0.2.10")})
	z.Add(dnswire.Record{Name: "www.example.com", Type: dnswire.TypeAAAA, Addr: netip.MustParseAddr("2001:db8::10")})
	z.Add(dnswire.Record{Name: "www.example.com", Type: dnswire.TypeHTTPS, Priority: 1, Params: []dnswire.SvcParamValue{
		{Key: dnswire.SvcParamALPN, ALPN: []string{"h3", "h3-29"}},
		{Key: dnswire.SvcParamIPv4Hint, Hints: []netip.Addr{netip.MustParseAddr("192.0.2.10")}},
	}})
	z.Add(dnswire.Record{Name: "alias.example.com", Type: dnswire.TypeCNAME, Target: "www.example.com"})
	z.Add(dnswire.Record{Name: "noquic.example.com", Type: dnswire.TypeA, Addr: netip.MustParseAddr("192.0.2.20")})
	return z
}

func startServer(t *testing.T) (*Server, *dnsclient.Client) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(pc, testZone(t))
	t.Cleanup(func() { srv.Close() })
	cl := &dnsclient.Client{Server: srv.pconn.LocalAddr(), Timeout: time.Second, Retries: 1}
	return srv, cl
}

func TestAQuery(t *testing.T) {
	_, cl := startServer(t)
	m, err := cl.Query(context.Background(), "www.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0].Addr.String() != "192.0.2.10" {
		t.Errorf("answers = %+v", m.Answers)
	}
	if !m.Header.Authoritative || !m.Header.Response {
		t.Error("header flags wrong")
	}
}

func TestHTTPSQuery(t *testing.T) {
	_, cl := startServer(t)
	m, err := cl.Query(context.Background(), "www.example.com", dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 {
		t.Fatalf("answers = %+v", m.Answers)
	}
	rr := m.Answers[0]
	if rr.Priority != 1 || len(rr.Params) != 2 || rr.Params[0].ALPN[0] != "h3" {
		t.Errorf("HTTPS RR = %+v", rr)
	}
}

func TestCNAMEFollowed(t *testing.T) {
	_, cl := startServer(t)
	m, err := cl.Query(context.Background(), "alias.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 2 {
		t.Fatalf("answers = %+v", m.Answers)
	}
	if m.Answers[0].Type != dnswire.TypeCNAME || m.Answers[1].Type != dnswire.TypeA {
		t.Errorf("answer types = %v %v", m.Answers[0].Type, m.Answers[1].Type)
	}
}

func TestNXDomainAndNoData(t *testing.T) {
	_, cl := startServer(t)
	_, err := cl.Query(context.Background(), "nonexistent.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.ResolveBatch(context.Background(), []string{"nonexistent.example.com"}, dnswire.TypeA, 1)
	if !errors.Is(res[0].Err, dnsclient.ErrNXDomain) {
		t.Errorf("err = %v", res[0].Err)
	}
	// Name exists but has no HTTPS record: NODATA (rcode 0, 0 answers).
	m, err := cl.Query(context.Background(), "noquic.example.com", dnswire.TypeHTTPS)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.RCode != dnswire.RCodeSuccess || len(m.Answers) != 0 {
		t.Errorf("NODATA response: rcode=%d answers=%d", m.Header.RCode, len(m.Answers))
	}
}

func TestResolveBatch(t *testing.T) {
	_, cl := startServer(t)
	names := []string{"www.example.com", "noquic.example.com", "nonexistent.example.com", "www.example.com"}
	results := cl.ResolveBatch(context.Background(), names, dnswire.TypeHTTPS, 4)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if len(results[0].HTTPSRecords()) != 1 {
		t.Errorf("result 0: %+v", results[0])
	}
	if len(results[1].Records) != 0 || results[1].Err != nil {
		t.Errorf("result 1: %+v", results[1])
	}
	if !errors.Is(results[2].Err, dnsclient.ErrNXDomain) {
		t.Errorf("result 2: %+v", results[2])
	}
	if len(results[3].HTTPSRecords()) != 1 {
		t.Errorf("result 3: %+v", results[3])
	}
}

func TestResultAddrs(t *testing.T) {
	_, cl := startServer(t)
	res := cl.ResolveBatch(context.Background(), []string{"www.example.com"}, dnswire.TypeAAAA, 1)
	addrs := res[0].Addrs()
	if len(addrs) != 1 || addrs[0] != "2001:db8::10" {
		t.Errorf("addrs = %v", addrs)
	}
}

func TestZoneLookupDirect(t *testing.T) {
	z := testZone(t)
	if z.names() != 3 {
		t.Errorf("names = %d", z.names())
	}
	if _, found := z.lookup("WWW.EXAMPLE.COM.", dnswire.TypeA); !found {
		t.Error("case-insensitive lookup failed")
	}
	answers, found := z.lookup("www.example.com", dnswire.TypeTXT)
	if !found || len(answers) != 0 {
		t.Errorf("TXT lookup: %v %v", answers, found)
	}
}

func TestServerIgnoresGarbage(t *testing.T) {
	srv, cl := startServer(t)
	// Raw garbage and a response-bit query must be dropped silently.
	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
	defer pc.Close()
	pc.WriteTo([]byte{1, 2, 3}, srv.pconn.LocalAddr())
	resp := &dnswire.Message{Header: dnswire.Header{ID: 1, Response: true}}
	wire, _ := resp.Marshal()
	pc.WriteTo(wire, srv.pconn.LocalAddr())
	// The server must still answer proper queries afterwards.
	if _, err := cl.Query(context.Background(), "www.example.com", dnswire.TypeA); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
}

// TestPushedQueries: on a simnet socket the server runs no read loop;
// sixteen workers' queries are answered on their own goroutines, one at
// a time, and closing the network closes the server with its socket.
func TestPushedQueries(t *testing.T) {
	n := simnet.New(simnet.Config{})
	pc, err := n.ListenUDP(netip.MustParseAddrPort("192.0.2.53:53"))
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(pc, testZone(t))
	cl := &dnsclient.Client{
		Server:     srv.pconn.LocalAddr(),
		DialPacket: func() (net.PacketConn, error) { return n.DialUDP() },
		Timeout:    time.Second,
		Retries:    1,
	}
	names := make([]string, 256)
	for i := range names {
		names[i] = "www.example.com"
		if i%3 == 0 {
			names[i] = "nonexistent.example.com"
		}
	}
	for i, r := range cl.ResolveBatch(context.Background(), names, dnswire.TypeA, 16) {
		if i%3 == 0 {
			if !errors.Is(r.Err, dnsclient.ErrNXDomain) {
				t.Errorf("%d: %s: err = %v, want NXDOMAIN", i, names[i], r.Err)
			}
		} else if addrs := r.Addrs(); r.Err != nil || len(addrs) != 1 || addrs[0] != "192.0.2.10" {
			t.Errorf("%d: %s: %v, %v", i, names[i], addrs, r.Err)
		}
	}
	n.Close()
	select {
	case <-srv.done:
	case <-time.After(5 * time.Second):
		t.Fatal("server still open after the network closed its socket")
	}
}
