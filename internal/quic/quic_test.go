package quic

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/transportparams"
)

// testCert builds a self-signed certificate for the given names.
func testCert(t testing.TB, names ...string) (tls.Certificate, *x509.CertPool) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: names[0]},
		DNSNames:     names,
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key, Leaf: leaf}, pool
}

func newUDP(t testing.TB) net.PacketConn {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

// startServer launches a listener that echoes on accepted streams.
func startServer(t testing.TB, cfg *Config, policy ServerPolicy) (*Listener, net.Addr) {
	t.Helper()
	return serveEcho(t, newUDP(t), cfg, policy)
}

// serveEcho is startServer on a socket of the caller's.
func serveEcho(t testing.TB, pc net.PacketConn, cfg *Config, policy ServerPolicy) (*Listener, net.Addr) {
	t.Helper()
	l, err := Listen(pc, cfg, policy, echoUpper)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, pc.LocalAddr()
}

// echoUpper answers each stream of conn with its data upper-cased.
func echoUpper(conn *Conn) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		s, err := conn.AcceptStream(ctx)
		if err != nil {
			return
		}
		go func(s *Stream) {
			data, err := io.ReadAll(s)
			if err != nil {
				return
			}
			s.Write(bytes.ToUpper(data))
			s.Close()
		}(s)
	}
}

func serverConfig(t testing.TB, names ...string) (*Config, *x509.CertPool) {
	cert, pool := testCert(t, names...)
	return &Config{
		TLS: &tls.Config{
			Certificates: []tls.Certificate{cert},
			NextProtos:   []string{"h3", "h3-29"},
		},
	}, pool
}

func clientConfig(pool *x509.CertPool, sni string) *Config {
	return &Config{
		TLS: &tls.Config{
			RootCAs:    pool,
			ServerName: sni,
			NextProtos: []string{"h3", "h3-29"},
		},
		HandshakeTimeout: 5 * time.Second,
	}
}

func TestHandshakeAndStreamEcho(t *testing.T) {
	scfg, pool := serverConfig(t, "example.org")
	scfg.TransportParams = DefaultServerParams()
	scfg.TransportParams.MaxUDPPayloadSize = 1452
	_, addr := startServer(t, scfg, ServerPolicy{})

	conn, err := Dial(context.Background(), newUDP(t), addr, clientConfig(pool, "example.org"))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()

	cs := conn.ConnectionState()
	if cs.Version != tls.VersionTLS13 {
		t.Errorf("TLS version %x", cs.Version)
	}
	if cs.NegotiatedProtocol != "h3" {
		t.Errorf("ALPN %q", cs.NegotiatedProtocol)
	}
	if cs.ServerName != "example.org" {
		t.Errorf("SNI %q", cs.ServerName)
	}
	if len(cs.PeerCertificates) == 0 || cs.PeerCertificates[0].DNSNames[0] != "example.org" {
		t.Error("peer certificate missing")
	}
	if conn.Version() != quicwire.VersionDraft29 {
		t.Errorf("negotiated version %v", conn.Version())
	}

	params, ok := conn.PeerTransportParameters()
	if !ok {
		t.Fatal("no peer transport parameters")
	}
	if params.InitialMaxStreamsBidi != 100 || params.MaxUDPPayloadSize != 1452 {
		t.Errorf("peer params: %+v", params)
	}
	if params.OriginalDestinationConnectionID == nil {
		t.Error("server did not echo original destination connection ID")
	}

	s, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("hello quic")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if string(resp) != "HELLO QUIC" {
		t.Errorf("echo = %q", resp)
	}

	st := conn.Stats()
	if st.HandshakeDuration <= 0 {
		t.Error("no handshake duration recorded")
	}
	if sent := conn.ep.tally.bytesOut.Load(); sent < quicwire.MinInitialSize {
		t.Errorf("sent only %d bytes", sent)
	}
	if st.VersionNegotiation {
		t.Error("unexpected version negotiation")
	}
}

func TestVersionNegotiationRetry(t *testing.T) {
	scfg, pool := serverConfig(t, "vn.test")
	scfg.Versions = []quicwire.Version{quicwire.VersionDraft29}
	_, addr := startServer(t, scfg, ServerPolicy{})

	ccfg := clientConfig(pool, "vn.test")
	ccfg.Versions = []quicwire.Version{quicwire.Version1, quicwire.VersionDraft29}
	conn, err := Dial(context.Background(), newUDP(t), addr, ccfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if conn.Version() != quicwire.VersionDraft29 {
		t.Errorf("version %v", conn.Version())
	}
	if !conn.Stats().VersionNegotiation {
		t.Error("stats did not record version negotiation")
	}
}

func TestVersionMismatch(t *testing.T) {
	scfg, pool := serverConfig(t, "mismatch.test")
	scfg.Versions = []quicwire.Version{quicwire.VersionDraft29}
	// Advertise Google-only versions, accept only draft-29: a client
	// offering v1 learns about versions it cannot use.
	_, addr := startServer(t, scfg, ServerPolicy{
		AdvertisedVersions: []quicwire.Version{quicwire.VersionGoogleQ050, quicwire.VersionGoogleQ046},
	})

	ccfg := clientConfig(pool, "mismatch.test")
	ccfg.Versions = []quicwire.Version{quicwire.Version1}
	_, err := Dial(context.Background(), newUDP(t), addr, ccfg)
	var vne *VersionNegotiationError
	if !errors.As(err, &vne) {
		t.Fatalf("err = %v, want VersionNegotiationError", err)
	}
	if len(vne.Server) != 2 || vne.Server[0] != quicwire.VersionGoogleQ050 {
		t.Errorf("server versions = %v", vne.Server)
	}
}

// TestRequireSNIRejectsWith0x128: a RequireSNI listener refuses a
// ClientHello without server_name with crypto error 0x128, and the
// reason phrase reaches the client: the policy's, or "handshake
// failure" by default. The check is one callback shared by every
// connection, so 16 refused and 16 admitted dials run at once against
// one listener, and each must get its own answer.
func TestRequireSNIRejectsWith0x128(t *testing.T) {
	for _, tc := range []struct{ name, policyReason, wantReason string }{
		{"policy-reason", "tls handshake failure", "tls handshake failure"},
		{"default-reason", "", "handshake failure"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg, pool := serverConfig(t, "sni.test")
			_, addr := startServer(t, scfg, ServerPolicy{RequireSNI: true, CloseReason: tc.policyReason})

			const each = 16
			errs := make(chan error, 2*each)
			var wg sync.WaitGroup
			for i := 0; i < each; i++ {
				noSNI, withSNI := newUDP(t), newUDP(t)
				wg.Add(2)
				go func() {
					defer wg.Done()
					ccfg := clientConfig(nil, "")
					ccfg.TLS.InsecureSkipVerify = true
					_, err := Dial(context.Background(), noSNI, addr, ccfg)
					var terr *quicwire.TransportErrorError
					switch {
					case !errors.As(err, &terr):
						errs <- fmt.Errorf("without SNI: err = %v (%T), want TransportErrorError", err, err)
					case terr.Code != quicwire.CryptoError0x128 || terr.Reason != tc.wantReason:
						errs <- fmt.Errorf("without SNI: code %v reason %q, want CRYPTO_ERROR(0x128) %q", terr.Code, terr.Reason, tc.wantReason)
					}
				}()
				go func() {
					defer wg.Done()
					conn, err := Dial(context.Background(), withSNI, addr, clientConfig(pool, "sni.test"))
					if err != nil {
						errs <- fmt.Errorf("with SNI: %v", err)
						return
					}
					conn.Close()
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestAdvertisedVersions pins the three states of
// ServerPolicy.AdvertisedVersions against a padded forced-negotiation
// probe: nil advertises Config.Versions, a non-nil empty slice stays
// silent, and an explicit list is advertised as it is.
func TestAdvertisedVersions(t *testing.T) {
	accepted := []quicwire.Version{quicwire.VersionDraft29, quicwire.Version1}
	explicit := []quicwire.Version{quicwire.VersionGoogleQ050, quicwire.VersionGoogleQ046}
	for _, tc := range []struct {
		name       string
		advertised []quicwire.Version
		want       []quicwire.Version // nil: no answer
	}{
		{"nil", nil, accepted},
		{"empty", []quicwire.Version{}, nil},
		{"explicit", explicit, explicit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scfg, _ := serverConfig(t, "vn.test")
			scfg.Versions = accepted
			_, addr := startServer(t, scfg, ServerPolicy{AdvertisedVersions: tc.advertised})

			pc := newUDP(t)
			defer pc.Close()
			pc.WriteTo(buildProbe(t, quicwire.MinInitialSize), addr)
			wait := 2 * time.Second
			if tc.want == nil {
				wait = 300 * time.Millisecond
			}
			pc.SetReadDeadline(time.Now().Add(wait))
			buf := make([]byte, 2048)
			n, _, err := pc.ReadFrom(buf)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("got a %d-byte answer, want silence", n)
				}
				return
			}
			if err != nil {
				t.Fatalf("no answer: %v", err)
			}
			hdr, _, err := quicwire.ParseLongHeader(buf[:n])
			if err != nil || hdr.Type != quicwire.PacketVersionNegotiation {
				t.Fatalf("answer not a version negotiation: %v %v", hdr, err)
			}
			if !slices.Equal(hdr.SupportedVersions, tc.want) {
				t.Errorf("advertised %v, want %v", hdr.SupportedVersions, tc.want)
			}
		})
	}
}

func TestUnpaddedInitialIgnored(t *testing.T) {
	scfg, _ := serverConfig(t, "pad.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	pc := newUDP(t)
	defer pc.Close()

	// A forced-negotiation probe below 1200 bytes must be ignored...
	probe := buildProbe(t, 600)
	pc.WriteTo(probe, addr)
	pc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 2048)
	if n, _, err := pc.ReadFrom(buf); err == nil {
		t.Fatalf("got %d-byte response to unpadded probe", n)
	}

	// ...while a padded probe elicits version negotiation.
	probe = buildProbe(t, quicwire.MinInitialSize)
	pc.WriteTo(probe, addr)
	pc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatalf("no response to padded probe: %v", err)
	}
	hdr, _, err := quicwire.ParseLongHeader(buf[:n])
	if err != nil || hdr.Type != quicwire.PacketVersionNegotiation {
		t.Fatalf("response not a version negotiation: %v %v", hdr, err)
	}
	if len(hdr.SupportedVersions) == 0 {
		t.Error("empty version list")
	}
}

func TestRespondToUnpaddedPolicy(t *testing.T) {
	scfg, _ := serverConfig(t, "unpadded.test")
	_, addr := startServer(t, scfg, ServerPolicy{RespondToUnpadded: true})

	pc := newUDP(t)
	defer pc.Close()
	pc.WriteTo(buildProbe(t, 600), addr)
	pc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatalf("no response: %v", err)
	}
	hdr, _, err := quicwire.ParseLongHeader(buf[:n])
	if err != nil || hdr.Type != quicwire.PacketVersionNegotiation {
		t.Fatal("not a version negotiation response")
	}
}

// buildProbe constructs a minimal forced-VN Initial-like packet of the
// given total size, mirroring the ZMap module.
func buildProbe(t *testing.T, size int) []byte {
	t.Helper()
	b := []byte{0xc0 | 0x40}
	v := quicwire.ForcedNegotiationVersion
	b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	dcid := quicwire.NewRandomConnID(8)
	scid := quicwire.NewRandomConnID(8)
	b = append(b, byte(len(dcid)))
	b = append(b, dcid...)
	b = append(b, byte(len(scid)))
	b = append(b, scid...)
	for len(b) < size {
		b = append(b, 0)
	}
	return b
}

func TestServerParamsSentToClient(t *testing.T) {
	scfg, pool := serverConfig(t, "params.test")
	p := transportparams.Default()
	p.MaxIdleTimeout = 12345
	p.InitialMaxData = 8192
	p.InitialMaxStreamDataBidiLocal = 32768
	p.InitialMaxStreamDataBidiRemote = 32768
	p.InitialMaxStreamDataUni = 32768
	p.InitialMaxStreamsBidi = 7
	p.InitialMaxStreamsUni = 3
	p.MaxUDPPayloadSize = 1404
	scfg.TransportParams = p
	_, addr := startServer(t, scfg, ServerPolicy{})

	conn, err := Dial(context.Background(), newUDP(t), addr, clientConfig(pool, "params.test"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, ok := conn.PeerTransportParameters()
	if !ok {
		t.Fatal("no params")
	}
	if got.MaxIdleTimeout != 12345 || got.InitialMaxData != 8192 || got.MaxUDPPayloadSize != 1404 {
		t.Errorf("params = %+v", got)
	}
	// The fingerprint must be independent of session-specific fields.
	p2 := p
	p2.OriginalDestinationConnectionID = quicwire.ConnID{9, 9}
	if got.Fingerprint() != p2.Fingerprint() {
		t.Errorf("fingerprint mismatch:\n got %s\nwant %s", got.Fingerprint(), p2.Fingerprint())
	}
}

func TestParallelConnectionsOneListener(t *testing.T) {
	scfg, pool := serverConfig(t, "parallel.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	const n = 8
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			conn, err := Dial(context.Background(), newUDP(t), addr, clientConfig(pool, "parallel.test"))
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			s, err := conn.OpenStream()
			if err != nil {
				errCh <- err
				return
			}
			s.Write([]byte("ping"))
			s.Close()
			resp, err := io.ReadAll(s)
			if err == nil && string(resp) != "PING" {
				err = errors.New("bad echo " + string(resp))
			}
			errCh <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil {
			t.Errorf("conn %d: %v", i, err)
		}
	}
}

func TestCloseWithErrorPropagates(t *testing.T) {
	scfg, pool := serverConfig(t, "close.test")
	l, addr := startServer(t, scfg, ServerPolicy{})
	_ = l
	conn, err := Dial(context.Background(), newUDP(t), addr, clientConfig(pool, "close.test"))
	if err != nil {
		t.Fatal(err)
	}
	conn.closeWithError(0x0100, "h3 no error")
	select {
	case <-conn.Closed():
	case <-time.After(time.Second):
		t.Fatal("connection did not close")
	}
	if _, err := conn.OpenStream(); err == nil {
		t.Error("OpenStream after close succeeded")
	}
}

func TestCryptoAssembler(t *testing.T) {
	var a cryptoAssembler
	// Out of order delivery.
	out, err := a.push(5, []byte("world"))
	if err != nil || out != nil {
		t.Fatalf("push(5): %q %v", out, err)
	}
	out, err = a.push(0, []byte("hello"))
	if err != nil || string(out) != "helloworld" {
		t.Fatalf("push(0): %q %v", out, err)
	}
	// Duplicate and overlapping data.
	out, _ = a.push(3, []byte("loworldX"))
	if string(out) != "X" {
		t.Errorf("overlap: %q", out)
	}
	// Fully stale duplicate.
	out, _ = a.push(0, []byte("he"))
	if out != nil {
		t.Errorf("stale: %q", out)
	}
	// Buffer bound.
	if _, err := a.push(1<<30, []byte("far")); err == nil {
		t.Error("oversized offset accepted")
	}
}

func TestAckManager(t *testing.T) {
	var m ackManager
	m.init()
	var ack quicwire.AckFrame
	if m.buildAck(&ack) {
		t.Error("ACK from empty manager")
	}
	for _, pn := range []uint64{0, 1, 2, 5, 6, 9} {
		if dup := m.onReceived(pn, true); dup {
			t.Errorf("pn %d reported duplicate", pn)
		}
	}
	if !m.onReceived(5, true) {
		t.Error("duplicate 5 not detected")
	}
	if !m.buildAck(&ack) {
		t.Fatal("no ack")
	}
	want := []quicwire.AckRange{{Smallest: 9, Largest: 9}, {Smallest: 5, Largest: 6}, {Smallest: 0, Largest: 2}}
	if len(ack.Ranges) != len(want) {
		t.Fatalf("ranges = %+v", ack.Ranges)
	}
	for i := range want {
		if ack.Ranges[i] != want[i] {
			t.Errorf("range %d = %+v want %+v", i, ack.Ranges[i], want[i])
		}
	}
	// Filling the gap merges ranges.
	m.onReceived(7, false)
	m.onReceived(8, false)
	m.onReceived(3, false)
	m.onReceived(4, false)
	m.buildAck(&ack)
	if len(ack.Ranges) != 1 || ack.Ranges[0] != (quicwire.AckRange{Smallest: 0, Largest: 9}) {
		t.Errorf("merged ranges = %+v", ack.Ranges)
	}
}

func TestLossState(t *testing.T) {
	var l lossState
	l.init()
	l.onSent(0, []quicwire.Frame{&quicwire.CryptoFrame{Data: []byte("a")}})
	l.onSent(1, []quicwire.Frame{&quicwire.AckFrame{Ranges: []quicwire.AckRange{{Smallest: 0, Largest: 0}}}}) // not ack-eliciting
	l.onSent(2, []quicwire.Frame{&quicwire.PingFrame{}})
	if len(l.sent) != 2 {
		t.Fatalf("sent = %d", len(l.sent))
	}
	anyNew := l.onAck(&quicwire.AckFrame{Ranges: []quicwire.AckRange{{Smallest: 0, Largest: 0}}})
	if !anyNew || len(l.sent) != 1 {
		t.Errorf("after ack: new=%v sent=%d", anyNew, len(l.sent))
	}
	frames := l.takeUnacked(nil)
	if _, ping := frames[0].(*quicwire.PingFrame); len(frames) != 1 || !ping {
		t.Errorf("unacked = %v", frames)
	}
	if len(l.sent) != 0 || len(l.frames) != 0 {
		t.Error("takeUnacked did not clear")
	}
}

// closeWithError sends CONNECTION_CLOSE with an application error code
// and tears the connection down.
func (c *Conn) closeWithError(code uint64, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{IsApp: true, ErrorCode: code, ReasonPhrase: reason})
	c.closeLocked(&quicwire.TransportErrorError{Code: quicwire.ApplicationError, Reason: reason})
	return nil
}

// remoteAddr returns the peer address, which moves when the server
// side of a connection migrates it to a validated path.
func (c *Conn) remoteAddr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}
