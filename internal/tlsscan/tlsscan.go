// Package tlsscan is the TLS-over-TCP scanner of the tool set (the
// Goscanner's role in the paper, Section 3.3): it completes TLS
// handshakes — with and without SNI — issues an HTTP/1.1 HEAD request
// and collects the Alt-Svc header, the second discovery channel for
// QUIC deployments. Its TLS observations feed the QUIC-vs-TCP
// comparison of Table 5.
package tlsscan

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"time"

	"quicscan/internal/altsvc"
	"quicscan/internal/core"
	"quicscan/internal/listscan"
	"quicscan/internal/telemetry"
)

// Registry metrics for the TLS-over-TCP discovery layer (the
// tlsscan_* family). Alt-Svc discoveries are counted separately: they
// are the second QUIC discovery channel of the paper.
var (
	mHandshakes  = telemetry.Default().CounterVec("tlsscan_handshakes_total", "outcome")
	mAltSvcFound = telemetry.Default().Counter("tlsscan_altsvc_quic_total")

	// Pre-resolved children: the per-target path does no label join.
	mHSDialError = mHandshakes.With("dial_error")
	mHSTLSError  = mHandshakes.With("tls_error")
	mHSSuccess   = mHandshakes.With("success")
)

// alpn is the one ALPN value offered; tls.Config treats it as
// read-only.
var alpn = []string{"http/1.1"}

// readerPool recycles the buffered readers that parse HTTP responses,
// one lease per target instead of a 4 KiB allocation each.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

// Target is one TLS-over-TCP scan destination.
type Target struct {
	Addr netip.Addr `json:"addr"`
	Port uint16     `json:"port"`
	SNI  string     `json:"sni,omitempty"`
}

func (t Target) port() uint16 {
	if t.Port == 0 {
		return 443
	}
	return t.Port
}

// Result records one TLS-over-TCP scan.
type Result struct {
	Target Target `json:"target"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`

	TLS  *core.TLSInfo `json:"tls,omitempty"`
	HTTP *HTTPInfo     `json:"http,omitempty"`

	// AltSvc holds the parsed alternative services, and QUICALPNs the
	// HTTP/3-indicating ALPN set extracted from them.
	AltSvc    []altsvc.Service `json:"alt_svc,omitempty"`
	QUICALPNs []string         `json:"quic_alpns,omitempty"`
}

// HTTPInfo is the HTTP/1.1 exchange outcome.
type HTTPInfo struct {
	RequestOK bool   `json:"request_ok"`
	Status    string `json:"status,omitempty"`
	Server    string `json:"server,omitempty"`
	AltSvcRaw string `json:"alt_svc_raw,omitempty"`
}

// Scanner performs stateful TLS-over-TCP scans.
type Scanner struct {
	// Dial opens the TCP connection; defaults to net.Dialer. The
	// simulated Internet substitutes its stream dialer.
	Dial func(ctx context.Context, addr netip.AddrPort) (net.Conn, error)
	// RootCAs for certificate validation (failures recorded, not
	// fatal).
	RootCAs *x509.CertPool
	// Timeout per target (default 3s).
	Timeout time.Duration
	// Workers for Scan (default 64).
	Workers int

	certs core.ChainMemo
}

func (s *Scanner) dial(ctx context.Context, addr netip.AddrPort) (net.Conn, error) {
	if s.Dial != nil {
		return s.Dial(ctx, addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr.String())
}

func (s *Scanner) timeout() time.Duration {
	if s.Timeout == 0 {
		return 3 * time.Second
	}
	return s.Timeout
}

// ScanTarget performs one TLS handshake plus HTTP HEAD.
func (s *Scanner) ScanTarget(ctx context.Context, t Target) Result {
	res := Result{Target: t}
	ctx, cancel := context.WithTimeout(ctx, s.timeout())
	defer cancel()

	raw, err := s.dial(ctx, netip.AddrPortFrom(t.Addr, t.port()))
	if err != nil {
		res.Error = err.Error()
		mHSDialError.Inc()
		return res
	}
	defer raw.Close()
	if deadline, ok := ctx.Deadline(); ok {
		raw.SetDeadline(deadline)
	}

	tcfg := &tls.Config{
		ServerName:         t.SNI,
		NextProtos:         alpn,
		InsecureSkipVerify: true,
		CurvePreferences:   []tls.CurveID{tls.X25519},
		MinVersion:         tls.VersionTLS12,
	}
	conn := tls.Client(raw, tcfg)
	if err := conn.HandshakeContext(ctx); err != nil {
		res.Error = err.Error()
		mHSTLSError.Inc()
		return res
	}
	res.OK = true
	mHSSuccess.Inc()
	cs := conn.ConnectionState()
	res.TLS = s.certs.TLSInfo(&cs, t.SNI, s.RootCAs)

	res.HTTP = s.doHTTP(conn, t)
	if res.HTTP.AltSvcRaw != "" {
		services, clear := altsvc.Parse(res.HTTP.AltSvcRaw)
		if !clear {
			res.AltSvc = services
			res.QUICALPNs = altsvc.H3ALPNs(services)
			if len(res.QUICALPNs) > 0 {
				mAltSvcFound.Inc()
			}
		}
	}
	return res
}

func (s *Scanner) doHTTP(conn *tls.Conn, t Target) *HTTPInfo {
	info := &HTTPInfo{}
	host := t.SNI
	if host == "" {
		host = t.Addr.String()
	}
	fmt.Fprintf(conn, "HEAD / HTTP/1.1\r\nHost: %s\r\nUser-Agent: quicscan-tls/1.0\r\nConnection: close\r\n\r\n", host)
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		br.Reset(nil)
		readerPool.Put(br)
		return info
	}
	// The HEAD response has no body and the header values below are
	// copied strings, so the reader can be released before return.
	resp.Body.Close()
	info.RequestOK = true
	info.Status = fmt.Sprintf("%d", resp.StatusCode)
	info.Server = resp.Header.Get("Server")
	info.AltSvcRaw = strings.Join(resp.Header.Values("Alt-Svc"), ", ")
	br.Reset(nil)
	readerPool.Put(br)
	return info
}

// Scan runs ScanTarget over all targets on Workers goroutines and
// returns the results in input order.
func (s *Scanner) Scan(ctx context.Context, targets []Target) []Result {
	return s.Stream(ctx, targets, nil)
}

// Stream is Scan with the results also handed to emit, in input order
// and while later targets are still in flight (listscan.Run's
// contract). A target not yet started when ctx ends is not dialled: its
// result carries the context error.
func (s *Scanner) Stream(ctx context.Context, targets []Target, emit func([]Result)) []Result {
	return listscan.Run(ctx, s.Workers, len(targets),
		func(_, i int) Result { return s.ScanTarget(ctx, targets[i]) },
		func(i int, err error) Result { return Result{Target: targets[i], Error: err.Error()} },
		emit)
}
