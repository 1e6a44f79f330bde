package h3

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"quicscan/internal/certgen"
	"quicscan/internal/quic"
	"quicscan/internal/simnet"
)

// TestEndToEndOverQUIC exercises the full stack: QUIC handshake,
// HTTP/3 control streams, a HEAD and a GET exchange.
func TestEndToEndOverQUIC(t *testing.T) {
	ca, err := certgen.NewCA("test-root")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: []string{"h3.test"}})
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	ca.AddToPool(pool)

	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: func(req *Request) *Response {
		if req.Method == "DELETE" {
			return &Response{Status: "404", Headers: []HeaderField{{Name: "server", Value: "testd"}}}
		}
		return &Response{
			Status:  "200",
			Headers: []HeaderField{{Name: "server", Value: "proxygen-bolt"}, {Name: "content-type", Value: "text/html; charset=utf-8"}},
			Body:    []byte("<html>hi</html>"),
		}
	}}
	l, err := quic.Listen(spc, &quic.Config{
		TLS: &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"h3", "h3-29"}},
	}, quic.ServerPolicy{}, srv.ServeConn)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	cpc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	qconn, err := quic.Dial(ctx, cpc, l.Addr(), &quic.Config{
		TLS: &tls.Config{RootCAs: pool, ServerName: "h3.test", NextProtos: []string{"h3"}},
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer qconn.Close()

	hc, err := NewClientConn(qconn)
	if err != nil {
		t.Fatal(err)
	}

	// HEAD: headers only, no body even though the handler sets one.
	resp, err := hc.RoundTrip(ctx, "HEAD", "h3.test", "/", nil)
	if err != nil {
		t.Fatalf("HEAD: %v", err)
	}
	if resp.Status != "200" || resp.Header("server") != "proxygen-bolt" {
		t.Errorf("HEAD resp = %+v", resp)
	}
	if len(resp.Body) != 0 {
		t.Errorf("HEAD response has %d body bytes", len(resp.Body))
	}

	// GET: full body.
	resp, err = hc.RoundTrip(ctx, "GET", "h3.test", "/index", nil)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	if string(resp.Body) != "<html>hi</html>" {
		t.Errorf("GET body = %q", resp.Body)
	}
	if resp.Header("content-length") == "" {
		t.Error("missing content-length")
	}

	// 404: the handler refuses DELETE.
	resp, err = hc.RoundTrip(ctx, "DELETE", "h3.test", "/missing", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "404" || resp.Header("server") != "testd" {
		t.Errorf("404 resp = %+v", resp)
	}
}

// serverGoroutines counts the goroutines running in Server's methods.
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "h3.(*Server).")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestServerGoroutinesFollowConnections: a server at rest is state, not
// goroutines. A dial the listener refuses (a require-SNI deployment,
// dialled without SNI) never reaches the HTTP/3 server, and a completed
// one runs exactly one ServeConn until it closes.
func TestServerGoroutinesFollowConnections(t *testing.T) {
	ca, err := certgen.NewCA("test-root")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: []string{"h3.test"}})
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	ca.AddToPool(pool)

	n := simnet.New(simnet.Config{})
	defer n.Close()
	ap := netip.MustParseAddrPort("192.0.2.3:443")
	spc, err := n.ListenUDP(ap)
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: func(*Request) *Response { return &Response{Status: "200"} }}
	l, err := quic.Listen(spc, &quic.Config{
		TLS: &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"h3"}},
	}, quic.ServerPolicy{RequireSNI: true}, srv.ServeConn)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	waitServers := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for serverGoroutines() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines in the HTTP/3 server, want %d", serverGoroutines(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	dial := func(sni string) (*quic.Conn, error) {
		cpc, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return quic.Dial(ctx, cpc, net.UDPAddrFromAddrPort(ap), &quic.Config{
			TLS: &tls.Config{RootCAs: pool, ServerName: sni, NextProtos: []string{"h3"}, InsecureSkipVerify: sni == ""},
		})
	}

	if conn, err := dial(""); err == nil {
		conn.Close()
		t.Fatal("a dial without SNI completed against a require-SNI listener")
	}
	if got := serverGoroutines(); got != 0 {
		t.Errorf("a refused dial left %d goroutines in the HTTP/3 server, want 0", got)
	}

	conn, err := dial("h3.test")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	hc, err := NewClientConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if resp, err := hc.RoundTrip(ctx, "HEAD", "h3.test", "/", nil); err != nil || resp.Status != "200" {
		t.Fatalf("HEAD = %+v, %v", resp, err)
	}
	waitServers(1) // ServeConn, waiting for the next stream; the request's goroutine is done
	conn.Close()
	waitServers(0)
}
