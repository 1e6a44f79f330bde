package quic

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"quicscan/internal/listscan"
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
// traffic there. remoteAddr, read throughout by another goroutine, moves
// with the path without a data race. The lossy row drives 200 flows
// through the same rebind, half of them while the handshake is in
// flight (RFC 9000 Section 8.1: the handshake itself validates the new
// address), and at least 99 % of them must survive.
func TestPathValidationPromotesReboundClient(t *testing.T) {
	t.Run("clean", testPromotesReboundClient)
	t.Run("lossy", testReboundFlowsSurviveLoss)
}

func testPromotesReboundClient(t *testing.T) {
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
				sc.remoteAddr()
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
	if got := sc.remoteAddr().String(); got != newAddr.String() {
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
	oldAddr := sc.remoteAddr().String()

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
	if got := sc.remoteAddr().String(); got != oldAddr {
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

// TestMigrateHonorsDisableActiveMigration: migrate must refuse when
// the peer's transport parameters forbid active migration, and a forced
// migration against a server that also behaviorally ignores moved peers
// must fail path validation rather than hang. In the lossy row no
// forced flow completes, and at least three in four fail path
// validation explicitly.
func TestMigrateHonorsDisableActiveMigration(t *testing.T) {
	t.Run("clean", testMigrateHonorsDisable)
	t.Run("lossy", testForcedFlowsAgainstDisabled)
}

func testMigrateHonorsDisable(t *testing.T) {
	w := newSimWorld(t, ServerPolicy{Quirks: Quirks{Migration: MigrationDisabled}}, func(server, client *Config) {
		server.TransportParams.DisableActiveMigration = true
	})
	w.serverConn(t)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	err := migrate(ctx, w.client, false)
	cancel()
	if !errors.Is(err, errMigrationDisabled) {
		t.Fatalf("migrate = %v, want errMigrationDisabled", err)
	}

	if _, err := w.clientPC.Rebind(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	err = migrate(ctx, w.client, true)
	cancel()
	if !errors.Is(err, errPathValidationFailed) {
		t.Fatalf("forced migrate = %v, want errPathValidationFailed", err)
	}
	if cs := w.client.Stats(); cs.PathValidationFailures == 0 {
		t.Error("failed forced migration not counted in PathValidationFailures")
	}
}

// lossyLink is the adversarial link of the lossy rows: 5 % loss, 30 ms
// ± 10 ms latency and 1 % reordering.
var lossyLink = simnet.Profile{Loss: 0.05, Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond, Reorder: 0.01}

// lossyPTO and lossyStage are the lossy flows' retransmission timeout
// and the bound on each stage of a flow (its handshake, each ping, a
// forced migration); they hold with and without the race detector.
const (
	lossyPTO   = 150 * time.Millisecond
	lossyStage = 2400 * time.Millisecond
)

// flow is what one client flow of a lossy row came to.
type flow struct {
	// completed: the flow's last ping after its rebind was answered.
	completed bool
	// midHandshake: the socket moved while the handshake was in flight.
	midHandshake bool
	// rejected: a forced migration failed path validation.
	rejected bool
	// attempts is how many tries the flow took.
	attempts int
}

// lossyFlows starts a server with policy on a network behind lossyLink
// and drives n client flows at it, workers at a time. A flow is tried
// up to attempts times, each from a fresh socket, until it completes.
// It returns each flow's last attempt and the server's connections.
func lossyFlows(t *testing.T, policy ServerPolicy, n, attempts, workers int,
	run func(i int, pc *simnet.PacketConn, dial func() (*Conn, error)) flow) ([]flow, []*Conn) {
	t.Helper()
	nw := simnet.New(simnet.Config{Seed: 42, Profile: lossyLink})
	t.Cleanup(func() { nw.Close() })
	scfg, pool := serverConfig(t, "example.org")
	scfg.TransportParams = DefaultServerParams()
	spc, err := nw.ListenUDP(simServerAddr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var served []*Conn
	l, err := Listen(spc, scfg, policy, func(c *Conn) { mu.Lock(); served = append(served, c); mu.Unlock() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	ccfg := clientConfig(pool, "example.org")
	ccfg.TransportParams = DefaultClientParams()
	ccfg.HandshakeTimeout = lossyStage
	ccfg.PTO = lossyPTO
	ccfg.MaxPTOs = 6
	ccfg.MaxPTOBackoff = 4 * lossyPTO
	flows := listscan.Run(context.Background(), workers, n, func(_, i int) flow {
		var f flow
		for a := 1; a <= attempts && !f.completed; a++ {
			pc, err := nw.DialUDP()
			if err != nil {
				t.Error(err)
				return f
			}
			f = run(i, pc, func() (*Conn, error) {
				ctx, cancel := context.WithTimeout(context.Background(), lossyStage+time.Second)
				defer cancel()
				return Dial(ctx, pc, net.UDPAddrFromAddrPort(simServerAddr), ccfg)
			})
			f.attempts = a
			pc.Close()
		}
		return f
	}, func(int, error) flow { return flow{} }, nil)
	mu.Lock()
	defer mu.Unlock()
	return flows, served
}

// pingWithin pings c, waiting at most one lossy stage.
func pingWithin(c *Conn) error {
	ctx, cancel := context.WithTimeout(context.Background(), lossyStage)
	defer cancel()
	return c.Ping(ctx)
}

// testReboundFlowsSurviveLoss: even flows rebind while the handshake
// is in flight, odd ones between two pings, which only survives if the
// server validates the moved client and promotes its path. A flow
// completes when its last ping is answered; each gets four attempts.
func testReboundFlowsSurviveLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy rows skipped in -short mode")
	}
	flows, served := lossyFlows(t, ServerPolicy{}, 200, 4, 64, func(i int, pc *simnet.PacketConn, dial func() (*Conn, error)) flow {
		var f flow
		var c *Conn
		var err error
		if i%2 == 0 {
			// The sleep lands the rebind between flights often
			// enough; when the handshake wins the race the flow is a
			// rebind right after it, still a survival case.
			done := make(chan struct{})
			go func() { c, err = dial(); close(done) }()
			time.Sleep(lossyPTO / 2)
			select {
			case <-done:
			default:
				f.midHandshake = true
			}
			if _, err := pc.Rebind(); err != nil {
				t.Error(err)
			}
			<-done
		} else {
			c, err = dial()
		}
		if err != nil {
			return f
		}
		defer c.Close()
		if pingWithin(c) != nil {
			return f
		}
		if i%2 == 1 {
			if _, err := pc.Rebind(); err != nil {
				return f
			}
		}
		f.completed = pingWithin(c) == nil
		return f
	})
	completed, midHandshake, retried := 0, 0, 0
	for _, f := range flows {
		if f.completed {
			completed++
		}
		if f.midHandshake {
			midHandshake++
		}
		if f.attempts > 1 {
			retried++
		}
	}
	migrations := 0
	for _, c := range served {
		migrations += c.Stats().Migrations
	}
	t.Logf("%d/%d flows survived, %d of them after a retry; %d rebound mid-handshake; the server promoted %d paths",
		completed, len(flows), retried, midHandshake, migrations)
	if rate := 100 * float64(completed) / float64(len(flows)); rate < 99 {
		t.Errorf("%.1f%% of flows survived their rebind, want >= 99%%", rate)
	}
	if midHandshake == 0 {
		t.Error("no flow rebound while its handshake was in flight")
	}
	if migrations == 0 {
		t.Error("the server promoted no migrated path")
	}
}

// testForcedFlowsAgainstDisabled: 80 flows rebind after a ping and
// force a migration to the new path against a server that ignores moved
// peers. The server sends nothing toward the new address, so the
// forced path validation fails and the flow's next ping goes
// unanswered.
func testForcedFlowsAgainstDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy rows skipped in -short mode")
	}
	policy := ServerPolicy{Quirks: Quirks{Migration: MigrationDisabled}}
	flows, _ := lossyFlows(t, policy, 80, 1, 80, func(_ int, pc *simnet.PacketConn, dial func() (*Conn, error)) flow {
		var f flow
		c, err := dial()
		if err != nil {
			return f
		}
		defer c.Close()
		if pingWithin(c) != nil {
			return f
		}
		if _, err := pc.Rebind(); err != nil {
			return f
		}
		ctx, cancel := context.WithTimeout(context.Background(), lossyStage)
		f.rejected = errors.Is(migrate(ctx, c, true), errPathValidationFailed)
		cancel()
		f.completed = pingWithin(c) == nil
		return f
	})
	completed, rejected := 0, 0
	for _, f := range flows {
		if f.completed {
			completed++
		}
		if f.rejected {
			rejected++
		}
	}
	t.Logf("%d/%d forced flows completed, %d failed path validation", completed, len(flows), rejected)
	if completed != 0 {
		t.Errorf("%d flows completed against a server that refuses migration, want 0", completed)
	}
	if rejected < len(flows)*3/4 {
		t.Errorf("only %d/%d forced migrations failed path validation", rejected, len(flows))
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
	err := migrate(ctx, w.client, false)
	cancel()
	if err != nil {
		t.Fatalf("migrate: %v", err)
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
		err := migrate(ctx, w.client, false)
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

// errMigrationDisabled is returned by migrate when the peer forbade
// active migration via the disable_active_migration transport
// parameter.
var errMigrationDisabled = errors.New("quic: peer disabled active migration")

// errPathValidationFailed is returned when a probed path never
// answered the PATH_CHALLENGE retries.
var errPathValidationFailed = errors.New("quic: path validation failed")

// migrate moves a connection's client half the way a client that
// changes paths deliberately would, through the machinery that ships:
// it rotates to the lowest unused peer-issued destination connection
// ID (RFC 9000, Section 9.5), retiring the one in use, and validates the
// active path with a PATH_CHALLENGE of its own (a pathState, as a
// server's rebound peer gets), blocking until the PATH_RESPONSE lands,
// the path fails, the connection dies, or ctx expires. The socket
// rebind that moves the client is the caller's (simnet's Rebind). It
// refuses with errMigrationDisabled when the peer's transport
// parameters forbid active migration, unless force is set: force
// migrates against a server that forbids it. The scanner never
// migrates, so this is the harness that drives a server's side.
func migrate(ctx context.Context, c *Conn, force bool) error {
	c.mu.Lock()
	if !force && c.peerParams.DisableActiveMigration {
		c.mu.Unlock()
		return errMigrationDisabled
	}
	next := -1
	for i, pc := range c.peerConnIDs {
		if pc.seq > c.dcidSeq && (next < 0 || pc.seq < c.peerConnIDs[next].seq) {
			next = i
		}
	}
	if next >= 0 {
		c.spaces[spaceApp].outFrames = append(c.spaces[spaceApp].outFrames,
			&quicwire.RetireConnectionIDFrame{SequenceNumber: c.dcidSeq})
		c.dcid, c.dcidSeq = c.peerConnIDs[next].id, c.peerConnIDs[next].seq
	}
	p := &pathState{remote: c.remote, ap: c.activeAP}
	c.paths = append(c.paths, p)
	c.startPathValidationLocked(p)
	c.sendPendingLocked()
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.paths = slices.DeleteFunc(c.paths, func(q *pathState) bool { return q == p })
		c.mu.Unlock()
	}()
	for {
		c.mu.Lock()
		status := p.status
		c.mu.Unlock()
		switch status {
		case pathValidated:
			return nil
		case pathFailed:
			return errPathValidationFailed
		}
		select {
		case <-c.closed:
			return c.Err()
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
