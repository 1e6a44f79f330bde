package quic

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
)

// simWorld is one client/server pair on a simulated network whose
// client socket can rebind mid-connection (kernel sockets cannot).
type simWorld struct {
	net      *simnet.Network
	listener *Listener
	accepted chan *Conn
	client   *Conn
	clientPC *simnet.PacketConn
}

var simServerAddr = netip.MustParseAddrPort("10.9.0.1:443")

// newSimWorld starts a server with the given policy on a clean
// simulated network and connects one client to it.
func newSimWorld(t *testing.T, policy ServerPolicy, mutate func(server, client *Config)) *simWorld {
	t.Helper()
	w := &simWorld{net: simnet.New(simnet.Config{Seed: 7}), accepted: make(chan *Conn, 4)}
	t.Cleanup(func() { w.net.Close() })

	scfg, pool := serverConfig(t, "example.org")
	scfg.TransportParams = DefaultServerParams()
	ccfg := clientConfig(pool, "example.org")
	ccfg.TransportParams = DefaultClientParams()
	ccfg.PTO = 50 * time.Millisecond
	ccfg.MaxPTOs = 8
	if mutate != nil {
		mutate(scfg, ccfg)
	}

	spc, err := w.net.ListenUDP(simServerAddr)
	if err != nil {
		t.Fatal(err)
	}
	w.listener, err = Listen(spc, scfg, policy, func(conn *Conn) { w.accepted <- conn })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.listener.Close() })

	cpc, err := w.net.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	w.clientPC = cpc
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.client, err = Dial(ctx, cpc, net.UDPAddrFromAddrPort(simServerAddr), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.client.Close() })
	return w
}

func (w *simWorld) serverConn(t *testing.T) *Conn {
	t.Helper()
	select {
	case conn := <-w.accepted:
		return conn
	case <-time.After(10 * time.Second):
		t.Fatal("server never accepted the connection")
		return nil
	}
}

func (w *simWorld) ping(t *testing.T, timeout time.Duration) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return w.client.Ping(ctx)
}

// TestPathValidationPromotesReboundClient: a NAT rebind mid-connection
// must trigger server-side path validation (PATH_CHALLENGE toward the
// new address over a fresh connection ID), and once the client's
// PATH_RESPONSE lands the server must promote the path and resume
// traffic there. RemoteAddr, read throughout as any caller may, moves
// with the path without a data race.
func TestPathValidationPromotesReboundClient(t *testing.T) {
	w := newSimWorld(t, ServerPolicy{}, nil)
	sc := w.serverConn(t)
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				sc.RemoteAddr()
			}
		}
	}()
	defer func() { close(stop); <-polled }()
	if err := w.ping(t, 5*time.Second); err != nil {
		t.Fatalf("pre-rebind ping: %v", err)
	}

	newAddr, err := w.clientPC.Rebind()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ping(t, 5*time.Second); err != nil {
		t.Fatalf("post-rebind ping: %v", err)
	}

	ss, cs := sc.Stats(), w.client.Stats()
	if ss.PathChallengesSent == 0 {
		t.Error("server sent no PATH_CHALLENGE")
	}
	if ss.PathValidations == 0 {
		t.Error("server validated no path")
	}
	if ss.Migrations == 0 {
		t.Error("server recorded no migration")
	}
	if cs.PathChallengesReceived == 0 {
		t.Error("client saw no PATH_CHALLENGE")
	}
	if got := sc.RemoteAddr().String(); got != newAddr.String() {
		t.Errorf("server remote address = %s, want rebound %s", got, newAddr)
	}
}

// TestDisableMigrationIgnoresRebound: a migration-hostile server must
// neither validate nor adopt the moved client; traffic stays pointed
// at the dead address and the connection starves.
func TestDisableMigrationIgnoresRebound(t *testing.T) {
	w := newSimWorld(t, ServerPolicy{Quirks: Quirks{Migration: MigrationDisabled}}, nil)
	sc := w.serverConn(t)
	if err := w.ping(t, 5*time.Second); err != nil {
		t.Fatalf("pre-rebind ping: %v", err)
	}
	oldAddr := sc.RemoteAddr().String()

	if _, err := w.clientPC.Rebind(); err != nil {
		t.Fatal(err)
	}
	if err := w.ping(t, time.Second); err == nil {
		t.Fatal("ping succeeded across a rebind the server should ignore")
	}
	ss := sc.Stats()
	if ss.PathChallengesSent != 0 {
		t.Errorf("migration-disabled server sent %d PATH_CHALLENGEs", ss.PathChallengesSent)
	}
	if ss.Migrations != 0 {
		t.Errorf("migration-disabled server recorded %d migrations", ss.Migrations)
	}
	if got := sc.RemoteAddr().String(); got != oldAddr {
		t.Errorf("server adopted %s, want it pinned to %s", got, oldAddr)
	}
}

// TestValidateBreakTearsDownAfterPromotion: the validates-then-breaks
// quirk must run the full validation handshake and then close the
// connection cleanly instead of using the promoted path.
func TestValidateBreakTearsDownAfterPromotion(t *testing.T) {
	w := newSimWorld(t, ServerPolicy{Quirks: Quirks{Migration: MigrationValidateBreak}}, nil)
	sc := w.serverConn(t)
	if err := w.ping(t, 5*time.Second); err != nil {
		t.Fatalf("pre-rebind ping: %v", err)
	}

	if _, err := w.clientPC.Rebind(); err != nil {
		t.Fatal(err)
	}
	w.ping(t, 2*time.Second)

	select {
	case <-w.client.Closed():
	case <-time.After(5 * time.Second):
		t.Fatal("client connection survived a validate-break server")
	}
	var terr *quicwire.TransportErrorError
	if err := w.client.Err(); !errors.As(err, &terr) || !terr.Remote || terr.Code != quicwire.NoError {
		t.Errorf("close error = %v, want remote NO_ERROR", err)
	}
	if cs := w.client.Stats(); cs.PathChallengesReceived == 0 {
		t.Error("server broke the connection without validating first")
	}
	if ss := sc.Stats(); ss.Migrations == 0 {
		t.Error("server never promoted the path it validated")
	}
}

// TestMigrateHonorsDisableActiveMigration: Migrate must refuse when
// the peer's transport parameters forbid active migration, and
// MigrateForce against a server that also behaviorally ignores moved
// peers must fail path validation rather than hang.
func TestMigrateHonorsDisableActiveMigration(t *testing.T) {
	w := newSimWorld(t, ServerPolicy{Quirks: Quirks{Migration: MigrationDisabled}}, func(server, client *Config) {
		server.TransportParams.DisableActiveMigration = true
	})
	w.serverConn(t)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	err := w.client.Migrate(ctx)
	cancel()
	if !errors.Is(err, ErrMigrationDisabled) {
		t.Fatalf("Migrate = %v, want ErrMigrationDisabled", err)
	}

	if _, err := w.clientPC.Rebind(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	err = w.client.MigrateForce(ctx)
	cancel()
	if !errors.Is(err, ErrPathValidationFailed) {
		t.Fatalf("MigrateForce = %v, want ErrPathValidationFailed", err)
	}
	if cs := w.client.Stats(); cs.PathValidationFailures == 0 {
		t.Error("failed forced migration not counted in PathValidationFailures")
	}
}

// TestMigrateRotatesActivePath: client-initiated migration on a
// willing server must validate on the client's schedule and keep the
// connection usable.
func TestMigrateRotatesActivePath(t *testing.T) {
	w := newSimWorld(t, ServerPolicy{}, nil)
	w.serverConn(t)
	if err := w.ping(t, 5*time.Second); err != nil {
		t.Fatalf("pre-migrate ping: %v", err)
	}
	if _, err := w.clientPC.Rebind(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err := w.client.Migrate(ctx)
	cancel()
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if err := w.ping(t, 5*time.Second); err != nil {
		t.Fatalf("post-migrate ping: %v", err)
	}
}

// TestCIDChurn cycles active migration back to back: every round
// rotates the destination connection ID, retires the previous one
// (forcing the server to unregister it from the demultiplexer and
// issue a replacement), and proves the connection still routes. A
// concurrent ping load runs throughout so the demux churn happens
// under fire; the race detector owns the rest.
func TestCIDChurn(t *testing.T) {
	w := newSimWorld(t, ServerPolicy{}, nil)
	sc := w.serverConn(t)

	stop := make(chan struct{})
	pinger := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				pinger <- nil
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := w.client.Ping(ctx)
			cancel()
			if err != nil {
				pinger <- err
				return
			}
		}
	}()

	for i := 0; i < 12; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := w.client.Migrate(ctx)
		cancel()
		if err != nil {
			t.Fatalf("migrate %d: %v", i, err)
		}
		// A round trip flushes the RETIRE_CONNECTION_ID out and the
		// replacement NEW_CONNECTION_ID back in before the next cycle
		// asks for a fresh ID.
		if err := w.ping(t, 5*time.Second); err != nil {
			t.Fatalf("ping after migrate %d: %v", i, err)
		}
	}
	close(stop)
	if err := <-pinger; err != nil {
		t.Fatalf("concurrent pinger died: %v", err)
	}

	w.client.mu.Lock()
	spare := len(w.client.peerConnIDs)
	w.client.mu.Unlock()
	if spare == 0 {
		t.Error("client ran out of peer connection IDs")
	}
	if err := w.ping(t, 5*time.Second); err != nil {
		t.Fatalf("final ping: %v", err)
	}
	if sc.Err() != nil {
		t.Fatalf("server connection died during churn: %v", sc.Err())
	}
}

// TestRetireConnIDViolations covers the two RFC 9000 Section 19.16
// musts: retiring a never-issued sequence number and retiring the
// connection ID the frame itself arrived on are both
// PROTOCOL_VIOLATIONs.
func TestRetireConnIDViolations(t *testing.T) {
	t.Run("never-issued", func(t *testing.T) {
		w := newSimWorld(t, ServerPolicy{}, nil)
		sc := w.serverConn(t)
		sc.mu.Lock()
		sc.handleRetireConnIDLocked(&quicwire.RetireConnectionIDFrame{SequenceNumber: 99})
		sc.mu.Unlock()
		select {
		case <-sc.Closed():
		case <-time.After(5 * time.Second):
			t.Fatal("connection survived retiring a never-issued sequence number")
		}
		var terr *quicwire.TransportErrorError
		if err := sc.Err(); !errors.As(err, &terr) || terr.Code != quicwire.ProtocolViolation {
			t.Errorf("close error = %v, want PROTOCOL_VIOLATION", err)
		}
	})
	t.Run("arrived-on", func(t *testing.T) {
		w := newSimWorld(t, ServerPolicy{}, nil)
		sc := w.serverConn(t)
		sc.mu.Lock()
		// Pretend the frame arrived in a packet addressed to the CID
		// with sequence number 0 and retire exactly that one.
		sc.rxDCID = append([]byte(nil), sc.scid...)
		sc.handleRetireConnIDLocked(&quicwire.RetireConnectionIDFrame{SequenceNumber: 0})
		sc.mu.Unlock()
		select {
		case <-sc.Closed():
		case <-time.After(5 * time.Second):
			t.Fatal("connection survived retiring the CID the frame arrived on")
		}
		var terr *quicwire.TransportErrorError
		if err := sc.Err(); !errors.As(err, &terr) || terr.Code != quicwire.ProtocolViolation {
			t.Errorf("close error = %v, want PROTOCOL_VIOLATION", err)
		}
	})
}
