package quic

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/transportparams"
)

// dialFull performs a blocking dial through tr, registering cleanup.
func dialFull(t *testing.T, tr *Transport, addr net.Addr, cfg *Config) *Conn {
	t.Helper()
	conn, err := tr.Dial(context.Background(), addr, cfg)
	if err != nil {
		t.Fatalf("full dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// echo opens a stream, round-trips data through the upper-casing test
// server, and checks the response.
func echo(t *testing.T, conn *Conn, msg, want string) {
	t.Helper()
	s, err := conn.OpenStream()
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if _, err := s.Write([]byte(msg)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s.Close()
	resp, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if string(resp) != want {
		t.Errorf("echo = %q, want %q", resp, want)
	}
}

func waitTicket(t *testing.T, conn *Conn) bool {
	t.Helper()
	select {
	case <-conn.SessionTicketReceived():
		return true
	case <-time.After(3 * time.Second):
		return false
	}
}

// TestSessionResumptionAnd0RTT: the full fast path. Dial once, receive
// a ticket, dial again through the same cache: the second handshake
// resumes, offers 0-RTT, has it accepted, and application data queued
// before handshake completion arrives at the server in 0-RTT packets.
func TestSessionResumptionAnd0RTT(t *testing.T) {
	scfg, pool := serverConfig(t, "resume.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	tr, err := NewTransport(newUDP(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ccfg := clientConfig(pool, "resume.test")
	ccfg.SessionCache = NewSessionCache(16)

	conn1 := dialFull(t, tr, addr, ccfg)
	if conn1.Resumed() {
		t.Error("first dial reported resumed")
	}
	if !waitTicket(t, conn1) {
		t.Fatal("no session ticket on first dial")
	}
	echo(t, conn1, "one", "ONE")
	conn1.Close()

	conn2, err := tr.DialEarly(context.Background(), addr, ccfg)
	if err != nil {
		t.Fatalf("DialEarly: %v", err)
	}
	defer conn2.Close()
	// Queue the request before the handshake finishes: with early keys
	// available it leaves in 0-RTT packets.
	echo(t, conn2, "two", "TWO")
	if err := conn2.HandshakeComplete(context.Background()); err != nil {
		t.Fatalf("HandshakeComplete: %v", err)
	}
	if !conn2.Resumed() {
		t.Error("second dial did not resume")
	}
	if !conn2.EarlyDataOffered() {
		t.Error("second dial did not offer 0-RTT")
	}
	if !conn2.EarlyDataAccepted() {
		t.Error("0-RTT not accepted")
	}
	if conn2.EarlyDataRejected() {
		t.Error("0-RTT reported rejected")
	}
}

// TestResumptionNoTicket: a server with session tickets disabled never
// issues one, and a follow-up dial runs a full handshake.
func TestResumptionNoTicket(t *testing.T) {
	scfg, pool := serverConfig(t, "noticket.test")
	_, addr := startServer(t, scfg, ServerPolicy{Quirks: Quirks{Resumption: ResumptionNoTicket}})

	tr, err := NewTransport(newUDP(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ccfg := clientConfig(pool, "noticket.test")
	ccfg.SessionCache = NewSessionCache(16)

	conn1 := dialFull(t, tr, addr, ccfg)
	select {
	case <-conn1.SessionTicketReceived():
		t.Fatal("received a ticket from a ResumptionNoTicket server")
	case <-time.After(500 * time.Millisecond):
	}
	conn1.Close()

	conn2 := dialFull(t, tr, addr, ccfg)
	if conn2.Resumed() {
		t.Error("resumed without a ticket")
	}
}

// TestZeroRTTRejectedReplay: a ResumptionTicketNo0RTT server resumes the
// session but refuses the early data; the client's 0-RTT flight is
// replayed in 1-RTT and the request still completes.
func TestZeroRTTRejectedReplay(t *testing.T) {
	scfg, pool := serverConfig(t, "no0rtt.test")
	_, addr := startServer(t, scfg, ServerPolicy{Quirks: Quirks{Resumption: ResumptionTicketNo0RTT}})

	tr, err := NewTransport(newUDP(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ccfg := clientConfig(pool, "no0rtt.test")
	ccfg.SessionCache = NewSessionCache(16)

	conn1 := dialFull(t, tr, addr, ccfg)
	if !waitTicket(t, conn1) {
		t.Fatal("no ticket")
	}
	conn1.Close()

	conn2, err := tr.DialEarly(context.Background(), addr, ccfg)
	if err != nil {
		t.Fatalf("DialEarly: %v", err)
	}
	defer conn2.Close()
	// Data queued while only early keys exist; after rejection it must
	// be replayed under the 1-RTT keys.
	echo(t, conn2, "replay me", "REPLAY ME")
	if err := conn2.HandshakeComplete(context.Background()); err != nil {
		t.Fatalf("HandshakeComplete: %v", err)
	}
	if !conn2.Resumed() {
		t.Error("session did not resume")
	}
	if conn2.EarlyDataOffered() && !conn2.EarlyDataRejected() {
		t.Error("0-RTT offered but not rejected by a declining server")
	}
	if conn2.EarlyDataAccepted() {
		t.Error("0-RTT accepted by a declining server")
	}
}

// TestParameterDowngradeOnResume: a server that shrinks its
// flow-control limits on resumption violates RFC 9000, Section 7.4.1.
// The client must close with PROTOCOL_VIOLATION, surface
// ErrParameterDowngrade, and invalidate the ticket so the next dial
// falls back to a clean full handshake.
func TestParameterDowngradeOnResume(t *testing.T) {
	scfg, pool := serverConfig(t, "downgrade.test")
	_, addr := startServer(t, scfg, ServerPolicy{Quirks: Quirks{Resumption: ResumptionDowngrade}})

	tr, err := NewTransport(newUDP(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ccfg := clientConfig(pool, "downgrade.test")
	ccfg.SessionCache = NewSessionCache(16)

	conn1 := dialFull(t, tr, addr, ccfg)
	if !waitTicket(t, conn1) {
		t.Fatal("no ticket")
	}
	conn1.Close()

	conn2, err := tr.DialEarly(context.Background(), addr, ccfg)
	if err != nil {
		t.Fatalf("DialEarly: %v", err)
	}
	err = conn2.HandshakeComplete(context.Background())
	if !errors.Is(err, ErrParameterDowngrade) {
		t.Fatalf("HandshakeComplete err = %v, want ErrParameterDowngrade", err)
	}
	conn2.Close()

	// The poisoned ticket was invalidated: the next dial must succeed
	// with a full handshake.
	conn3 := dialFull(t, tr, addr, ccfg)
	if conn3.Resumed() {
		t.Error("third dial resumed with an invalidated ticket")
	}
	echo(t, conn3, "clean", "CLEAN")
}

// TestNewTokenSkipsRetry: a Retry-validating server hands out a
// NEW_TOKEN after the handshake; the next dial presents it and is
// admitted without the extra Retry round trip.
func TestNewTokenSkipsRetry(t *testing.T) {
	scfg, pool := serverConfig(t, "token.test")
	_, addr := startServer(t, scfg, ServerPolicy{Quirks: Quirks{Retry: RetryStrictDrop}})

	tr, err := NewTransport(newUDP(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ccfg := clientConfig(pool, "token.test")
	ccfg.SessionCache = NewSessionCache(16)

	conn1 := dialFull(t, tr, addr, ccfg)
	if !conn1.Stats().Retried {
		t.Fatal("first dial saw no Retry")
	}
	// The NEW_TOKEN arrives with the server's post-handshake flight;
	// the ticket wait doubles as a settling point for it.
	if !waitTicket(t, conn1) {
		t.Fatal("no ticket")
	}
	echo(t, conn1, "warm", "WARM")
	conn1.Close()

	conn2 := dialFull(t, tr, addr, ccfg)
	if conn2.Stats().Retried {
		t.Error("second dial paid the Retry round trip despite NEW_TOKEN")
	}
	if !conn2.Resumed() {
		t.Error("second dial did not resume")
	}
}

// TestConcurrentDialsSharedCache: many dials racing on one SessionCache
// (the rescan campaign shape) must be data-race free; run under -race.
func TestConcurrentDialsSharedCache(t *testing.T) {
	scfg, pool := serverConfig(t, "race.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	cache := NewSessionCache(16)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := NewTransport(newUDP(t))
			if err != nil {
				t.Error(err)
				return
			}
			defer tr.Close()
			ccfg := clientConfig(pool, "race.test")
			ccfg.SessionCache = cache
			conn, err := tr.Dial(context.Background(), addr, ccfg)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			// Let ticket storage race with other dials' lookups.
			select {
			case <-conn.SessionTicketReceived():
			case <-time.After(2 * time.Second):
			}
			conn.Close()
		}()
	}
	wg.Wait()

	// After the dust settles, the shared cache resumes.
	tr, err := NewTransport(newUDP(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ccfg := clientConfig(pool, "race.test")
	ccfg.SessionCache = cache
	conn := dialFull(t, tr, addr, ccfg)
	if !conn.Resumed() {
		t.Error("dial after concurrent warm-up did not resume")
	}
}

// TestDefaultTPTemplateMatchesMarshal: the precomputed default
// transport-parameter template must be byte-identical to a fresh
// Marshal of the same parameters, for any source connection ID length
// in use.
func TestDefaultTPTemplateMatchesMarshal(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		scid := quicwire.NewRandomConnID(n)
		cfg := (&Config{}).clone()
		if !cfg.defaultParams {
			t.Fatal("clone of empty config did not mark default params")
		}
		got := localParams(cfg, scid)

		p := DefaultClientParams()
		p.InitialSourceConnectionID = scid
		p.HasInitialSourceConnectionID = true
		want := p.Marshal()
		if !bytes.Equal(got, want) {
			t.Errorf("scid len %d: template differs from Marshal\n got %x\nwant %x", n, got, want)
		}
	}
	// A caller-supplied parameter set must not take the template path.
	cfg := (&Config{TransportParams: func() (p transportparams.Parameters) {
		p = DefaultClientParams()
		p.InitialMaxData = 4242
		return
	}()}).clone()
	if cfg.defaultParams {
		t.Error("explicit params marked as default")
	}
}
