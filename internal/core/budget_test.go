package core

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"quicscan/internal/certgen"
	"quicscan/internal/h3"
	"quicscan/internal/quic"
	"quicscan/internal/simnet"
)

// The per-target allocation budget (DESIGN.md, "Per-target allocation
// budget"). One ScanTarget — scanner plus the in-process server it
// talks to, everything the process allocates for one target — is
// measured next to the bare crypto/tls QUIC handshake it contains,
// pumped in memory with the same certificates and configs. The
// handshake is the floor: crypto/tls's allocations are not ours to
// remove. What is left is ours, and it has a ceiling.
// oursCeiling bounds total − floor. When committed (go1.24): 1,246
// allocations per target in all, 992 of them the handshake, 254 ours
// (253–258 over repeated runs); the commit before, whose route table
// still stringified every connection ID it registered, measured
// 1,258 / 992 / 265. The headroom is for sites that move by one or two
// between runs, not for a new per-packet allocation: those come 15 to
// a target.
const oursCeiling = 273

// oursBytesCeiling bounds the same difference in bytes
// (runtime.MemStats.TotalAlloc over the same two runs), which counts
// alone cannot hold: a connection that grows by a size class allocates
// no more often. When committed (go1.24): 126.7 KB per target in all,
// 81.6 KB of it the handshake, 45,017–45,264 B ours over repeated runs;
// the commit before, whose Conn still carried three 1,536-byte send
// arrays (8,192-byte size class, now 3,456), measured 136.2 / 81.6 /
// 54,455–54,687. The headroom is under a fifth of that step.
const oursBytesCeiling = 47000

func TestScanTargetAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	ca, err := certgen.NewCA("budget CA")
	if err != nil {
		t.Fatal(err)
	}
	const sni = "www.budget.test"
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: []string{sni}})
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	ca.AddToPool(pool)
	serverTLS := &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"h3", "h3-29"}, MinVersion: tls.VersionTLS13}
	params := serverParams()

	// The measured system: a Listener with an HTTP/3 responder on a
	// simulated network, and a Scanner with the HEAD request on.
	sim := simnet.New(simnet.Config{})
	defer sim.Close()
	ap := netip.MustParseAddrPort("192.0.2.10:443")
	pc, err := sim.ListenUDP(ap)
	if err != nil {
		t.Fatal(err)
	}
	srv := &h3.Server{Handler: func(*h3.Request) *h3.Response { return &h3.Response{Status: "200"} }}
	l, err := quic.Listen(pc, &quic.Config{TLS: serverTLS, TransportParams: params}, quic.ServerPolicy{}, srv.ServeConn)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := &Scanner{
		DialPacket: func() (net.PacketConn, error) { return sim.DialUDP() },
		RootCAs:    pool,
		Timeout:    2 * time.Second,
	}
	defer s.Close()
	ctx := context.Background()
	total, totalBytes := perRun(100, func() {
		res := s.ScanTarget(ctx, Target{Addr: ap.Addr(), SNI: sni})
		if res.Outcome != OutcomeSuccess || res.HTTP == nil || !res.HTTP.RequestOK {
			t.Fatalf("scan: %s %s %+v", res.Outcome, res.Error, res.HTTP)
		}
	})

	// The floor: the same handshake with nothing of ours in it.
	clientTLS := &tls.Config{ServerName: sni, NextProtos: alpn, RootCAs: pool, InsecureSkipVerify: true,
		CurvePreferences: onlyX25519, MinVersion: tls.VersionTLS13}
	clientParams := quic.DefaultClientParams()
	clientTP, serverTP := clientParams.Marshal(), params.Marshal()
	floor, floorBytes := perRun(100, func() {
		if err := tlsHandshake(clientTLS, serverTLS, clientTP, serverTP); err != nil {
			t.Fatal(err)
		}
	})

	ours, oursBytes := total-floor, totalBytes-floorBytes
	t.Logf("allocations per target: %.0f in all, %.0f the crypto/tls handshake it contains, %.0f ours (ceiling %d)",
		total, floor, ours, oursCeiling)
	t.Logf("bytes per target: %.0f in all, %.0f the crypto/tls handshake it contains, %.0f ours (ceiling %d)",
		totalBytes, floorBytes, oursBytes, oursBytesCeiling)
	if ours > oursCeiling {
		t.Errorf("our share is %.0f allocations per target, over the ceiling of %d", ours, oursCeiling)
	}
	if oursBytes > oursBytesCeiling {
		t.Errorf("our share is %.0f bytes per target, over the ceiling of %d", oursBytes, oursBytesCeiling)
	}
}

// perRun is testing.AllocsPerRun for allocations and bytes at once: it
// runs f once to warm up, then runs times at GOMAXPROCS 1, and returns
// the process-wide allocations (runtime.MemStats.Mallocs) and bytes
// (TotalAlloc) per run.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// tlsHandshake pumps a client and a server QUIC TLS state machine
// against each other in memory, as quic.Conn drives them: the server
// with session events on, issuing one early-data ticket when its
// handshake is done.
func tlsHandshake(clientCfg, serverCfg *tls.Config, clientParams, serverParams []byte) error {
	ctx := context.Background()
	cli := tls.QUICClient(&tls.QUICConfig{TLSConfig: clientCfg})
	srv := tls.QUICServer(&tls.QUICConfig{TLSConfig: serverCfg, EnableSessionEvents: true})
	defer cli.Close()
	defer srv.Close()
	cli.SetTransportParameters(clientParams)
	srv.SetTransportParameters(serverParams)
	if err := cli.Start(ctx); err != nil {
		return err
	}
	if err := srv.Start(ctx); err != nil {
		return err
	}
	var cliDone, srvDone bool
	// pump hands everything from has written to the other side.
	pump := func(from, to *tls.QUICConn) (moved bool, err error) {
		for {
			switch e := from.NextEvent(); e.Kind {
			case tls.QUICNoEvent:
				return moved, nil
			case tls.QUICWriteData:
				moved = true
				if err := to.HandleData(e.Level, e.Data); err != nil {
					return moved, err
				}
			case tls.QUICHandshakeDone:
				if from == cli {
					cliDone = true
					continue
				}
				srvDone = true
				if err := srv.SendSessionTicket(tls.QUICSessionTicketOptions{EarlyData: true}); err != nil {
					return moved, err
				}
			}
		}
	}
	for {
		a, err := pump(cli, srv)
		if err != nil {
			return err
		}
		b, err := pump(srv, cli)
		if err != nil {
			return err
		}
		if !a && !b {
			break
		}
	}
	if !cliDone || !srvDone {
		return errors.New("in-memory TLS handshake stalled")
	}
	return nil
}
