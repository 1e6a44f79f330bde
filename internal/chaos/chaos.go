// Package chaos builds adversarial simulated Internets — hundreds of
// QUIC+HTTP/3 deployments behind impaired links — and drives the
// stateful scanner through them. It is the harness beneath the repo's
// chaos/soak test tier: where unit tests check one mechanism against
// one failure, this tier checks that the whole pipeline (simnet
// impairment profiles, PTO retransmission, scanner retries, shared
// transport demultiplexing) composes into the loss tolerance the
// paper's methodology assumes of ZMap-style scanning.
package chaos

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"net/netip"
	"time"

	"quicscan/internal/certgen"
	"quicscan/internal/core"
	"quicscan/internal/h3"
	"quicscan/internal/quic"
	"quicscan/internal/simnet"
	"quicscan/internal/transportparams"
)

// ServerDomain is the SNI all chaos-world servers answer to. One
// certificate is shared across the population: chaos runs measure loss
// recovery, not PKI diversity, and per-server issuance would dominate
// setup time at 500+ servers.
const ServerDomain = "chaos.test"

// DefaultProfile is the canonical adversarial link: 5% loss, 30ms base
// latency with ±10ms jitter, 1% reordering. Deliberately free of
// corruption — flipped bits invalidate packets rather than delay them,
// which is a different failure class than the loss recovery under test.
func DefaultProfile() simnet.Profile {
	return simnet.Profile{
		Loss:    0.05,
		Latency: 30 * time.Millisecond,
		Jitter:  10 * time.Millisecond,
		Reorder: 0.01,
	}
}

// World is a population of QUIC servers on a shared simulated network.
type World struct {
	Net     *simnet.Network
	Pool    *x509.CertPool
	Targets []core.Target

	listeners []*quic.Listener
	policy    quic.ServerPolicy
}

// NewWorld builds n servers on an impaired simnet. Servers are spread
// over 10.0.0.0/16 addresses, all on port 443, all presenting the same
// CA-signed certificate for ServerDomain and answering HTTP/3 HEAD
// requests.
func NewWorld(n int, cfg simnet.Config) (*World, error) {
	return NewWorldPolicy(n, cfg, quic.ServerPolicy{})
}

// NewWorldPolicy is NewWorld with a shared server policy, letting
// chaos scenarios run against quirked populations (e.g. servers that
// refuse connection migration).
func NewWorldPolicy(n int, cfg simnet.Config, policy quic.ServerPolicy) (*World, error) {
	w := &World{Net: simnet.New(cfg), Pool: x509.NewCertPool(), policy: policy}
	ca, err := certgen.NewCA("chaos-ca")
	if err != nil {
		w.Close()
		return nil, err
	}
	ca.AddToPool(w.Pool)
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: []string{ServerDomain}})
	if err != nil {
		w.Close()
		return nil, err
	}

	params := quic.DefaultServerParams()
	params.MaxUDPPayloadSize = 1452
	params.MaxIdleTimeout = 30000

	for i := 0; i < n; i++ {
		addr := netip.AddrFrom4([4]byte{10, 0, byte(i / 250), byte(1 + i%250)})
		if err := w.addServer(addr, cert, params); err != nil {
			w.Close()
			return nil, err
		}
		w.Targets = append(w.Targets, core.Target{Addr: addr, SNI: ServerDomain})
	}
	return w, nil
}

func (w *World) addServer(addr netip.Addr, cert tls.Certificate, params transportparams.Parameters) error {
	pc, err := w.Net.ListenUDP(netip.AddrPortFrom(addr, 443))
	if err != nil {
		return fmt.Errorf("chaos: listening on %v: %w", addr, err)
	}
	srv := &h3.Server{Handler: func(req *h3.Request) *h3.Response {
		return &h3.Response{Status: "200", Headers: []h3.HeaderField{{Name: "server", Value: "chaos/1.0"}}}
	}}
	l, err := quic.Listen(pc, &quic.Config{
		TLS: &tls.Config{
			Certificates: []tls.Certificate{cert},
			NextProtos:   []string{"h3", "h3-34", "h3-32", "h3-29"},
		},
		TransportParams: params,
	}, w.policy, srv.ServeConn)
	if err != nil {
		pc.Close()
		return err
	}
	w.listeners = append(w.listeners, l)
	return nil
}

// Close tears down all servers and the network.
func (w *World) Close() {
	for _, l := range w.listeners {
		l.Close()
	}
	if w.Net != nil {
		w.Net.Close()
	}
}

// ScanConfig tunes one chaos scan run.
type ScanConfig struct {
	// Timeout bounds each connection attempt.
	Timeout time.Duration
	// Retries re-probes silent targets (0 = single attempt).
	Retries int
	// RetryBackoff is the initial inter-attempt pause.
	RetryBackoff time.Duration
	// PTO and MaxPTOs tune in-handshake retransmission.
	PTO     time.Duration
	MaxPTOs int
	// Workers is the scan parallelism (0 = the scanner default).
	Workers int
	// HTTP also performs the HTTP/3 HEAD exchange; off by default
	// because chaos runs measure handshake recovery.
	HTTP bool
}

// Report is the outcome of one chaos scan.
type Report struct {
	Summary   core.Summary
	Results   []core.Result
	Transport quic.TransportStats
	Impair    simnet.ImpairmentStats
}

// Scan runs the stateful scanner over every target in the world.
func (w *World) Scan(ctx context.Context, sc ScanConfig) Report {
	s := &core.Scanner{
		DialPacket:   func() (net.PacketConn, error) { return w.Net.DialUDP() },
		RootCAs:      w.Pool,
		Timeout:      sc.Timeout,
		Retries:      sc.Retries,
		RetryBackoff: sc.RetryBackoff,
		PTO:          sc.PTO,
		MaxPTOs:      sc.MaxPTOs,
		Workers:      sc.Workers,
		SkipHTTP:     !sc.HTTP,
	}
	defer s.Close()
	results := s.Scan(ctx, w.Targets)
	var rep Report
	rep.Results = results
	rep.Summary = core.Summarize(results)
	rep.Transport, _ = s.TransportStats()
	rep.Impair = w.Net.ImpairmentStats()
	return rep
}
