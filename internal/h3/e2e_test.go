package h3

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"net"
	"testing"
	"time"

	"quicscan/internal/certgen"
	"quicscan/internal/quic"
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
	l, err := quic.Listen(spc, &quic.Config{
		TLS: &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"h3", "h3-29"}},
	}, quic.ServerPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	srv := &Server{Handler: func(req *Request) *Response {
		if req.Path == "/missing" {
			return &Response{Status: "404", Headers: []HeaderField{{Name: "server", Value: "testd"}}}
		}
		return &Response{
			Status:  "200",
			Headers: []HeaderField{{Name: "server", Value: "proxygen-bolt"}, {Name: "content-type", Value: "text/html; charset=utf-8"}},
			Body:    []byte("<html>hi</html>"),
		}
	}}
	go srv.ServeListener(l)

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

	// 404 path.
	resp, err = hc.RoundTrip(ctx, "GET", "h3.test", "/missing", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "404" || resp.Header("server") != "testd" {
		t.Errorf("404 resp = %+v", resp)
	}
}
