package internet

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"sync"

	"quicscan/internal/altsvc"
	"quicscan/internal/certgen"
	"quicscan/internal/dnsserver"
	"quicscan/internal/h3"
	"quicscan/internal/quic"
	"quicscan/internal/quicwire"
)

// StartOptions select which parts of the universe run real servers.
type StartOptions struct {
	// Stateful instantiates QUIC listeners for deployments that can
	// complete handshakes (active and require-SNI). Without it, only
	// the stateless synthetic responder answers QUIC probes.
	Stateful bool
	// Web serves HTTPS (TLS-over-TCP) for every deployment, required
	// for Alt-Svc discovery and the Table 5 comparison.
	Web bool
}

// servers holds the running infrastructure of a universe.
type servers struct {
	dns      *dnsserver.Server
	rootCA   *certgen.CA
	rootPool *x509.CertPool
	quicLs   []*quic.Listener
	// web is the one HTTPS server that answers on every deployment's :443.
	web       *http.Server
	certCache map[string]tls.Certificate
	mu        sync.Mutex
}

// DNSAddr is where the universe's resolver listens.
var DNSAddr = netip.MustParseAddrPort("198.51.0.53:53")

// Start brings the universe online. It is idempotent per universe. A
// Start that fails stops what it started first, so the universe can be
// started again or stopped.
func (u *Universe) Start(opts StartOptions) error {
	if u.servers != nil {
		return fmt.Errorf("internet: universe already started")
	}
	u.servers = &servers{certCache: make(map[string]tls.Certificate)}
	if err := u.start(opts); err != nil {
		u.Net.SetSyntheticResponder(nil)
		u.servers.close()
		u.servers = nil
		return err
	}
	return nil
}

func (u *Universe) start(opts StartOptions) error {
	s := u.servers
	ca, err := certgen.NewCA("quicscan Simulation Root CA")
	if err != nil {
		return err
	}
	s.rootCA = ca
	s.rootPool = x509.NewCertPool()
	ca.AddToPool(s.rootPool)

	// DNS.
	dnsPC, err := u.Net.ListenUDP(DNSAddr)
	if err != nil {
		return err
	}
	s.dns = dnsserver.Serve(dnsPC, u.Zone)

	// Stateless QUIC behaviour for every address without a socket.
	u.Net.SetSyntheticResponder(u.syntheticQUIC)

	for _, d := range u.Deployments {
		needsQUIC := opts.Stateful && (d.Behavior == BehaviorActive || d.Behavior == BehaviorRequireSNI)
		if needsQUIC {
			if err := u.startQUICServer(d); err != nil {
				return fmt.Errorf("internet: QUIC server for %v: %w", d.Addr, err)
			}
		}
	}
	if opts.Web {
		return u.startWebServer()
	}
	return nil
}

// close stops every server started so far; the DNS server is nil when
// Start failed before it.
func (s *servers) close() {
	for _, l := range s.quicLs {
		l.Close()
	}
	if s.web != nil {
		s.web.Close()
	}
	if s.dns != nil {
		s.dns.Close()
	}
}

// Stop tears everything down, the network included. It is safe after a
// Start that failed, or none.
func (u *Universe) Stop() {
	if u.servers != nil {
		u.servers.close()
		u.servers = nil
	}
	u.Net.Close()
}

// RootCAs returns the trust anchors scanners should validate against.
func (u *Universe) RootCAs() *x509.CertPool { return u.servers.rootPool }

// certFor returns the (cached) certificate for a deployment. Providers
// share wildcard certificates over their domain namespaces, like real
// CDNs; generation selects the rotation generation (Google rotates
// weekly, Section 5.1).
func (u *Universe) certFor(d *Deployment, generation int) (tls.Certificate, error) {
	key := fmt.Sprintf("%s/gen%d", d.Provider, generation)
	s := u.servers
	s.mu.Lock()
	defer s.mu.Unlock()
	if cert, ok := s.certCache[key]; ok {
		return cert, nil
	}
	names := providerCertNames(d)
	cert, err := s.rootCA.Issue(certgen.LeafOptions{
		CommonName: d.Provider + ".sim",
		DNSNames:   names,
	})
	if err != nil {
		return tls.Certificate{}, err
	}
	s.certCache[key] = cert
	return cert, nil
}

// providerCertNames builds the wildcard SAN list covering every name
// the generator can attach to this provider's deployments.
func providerCertNames(d *Deployment) []string {
	return []string{
		d.Provider + ".sim",
		"*." + d.Provider + "-sites.com",
		d.Provider + "-sites.com",
		"*." + d.Profile.Name + "-tail.net",
	}
}

// selfSignedFor returns the Google-style self-signed "SNI required"
// error certificate.
func (u *Universe) selfSignedFor(d *Deployment) (tls.Certificate, error) {
	key := d.Provider + "/selfsigned"
	s := u.servers
	s.mu.Lock()
	defer s.mu.Unlock()
	if cert, ok := s.certCache[key]; ok {
		return cert, nil
	}
	cert, err := s.rootCA.Issue(certgen.LeafOptions{
		CommonName: "invalid2.invalid",
		DNSNames:   []string{"invalid2.invalid"},
		SelfSigned: true,
	})
	if err != nil {
		return tls.Certificate{}, err
	}
	s.certCache[key] = cert
	return cert, nil
}

// acceptedVersions resolves the versions a deployment completes
// handshakes with.
func (d *Deployment) acceptedVersions(week int) []quicwire.Version {
	if d.Profile.AcceptVersions != nil && d.Behavior == BehaviorMismatch {
		return d.Profile.AcceptVersions
	}
	var out []quicwire.Version
	for _, v := range d.quicVersionsForWeek(week) {
		if v.IsIETF() {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = []quicwire.Version{quicwire.VersionDraft29}
	}
	return out
}

// ListenerSetup builds the quic listener Config and ServerPolicy that
// realize this deployment's profile — version sets, SNI policy, and
// the implementation quirks the fingerprint engine classifies. The
// caller supplies the TLS config (certificates differ between the
// universe and standalone conformance harnesses).
func (d *Deployment) ListenerSetup(week int, tlsCfg *tls.Config) (*quic.Config, quic.ServerPolicy) {
	cfg := &quic.Config{
		TLS:             tlsCfg,
		Versions:        d.acceptedVersions(week),
		TransportParams: d.TPConfig,
	}
	policy := quic.ServerPolicy{
		AdvertisedVersions: d.quicVersionsForWeek(week),
		RespondToUnpadded:  d.Profile.RespondToUnpadded,
		Quirks:             d.Profile.Quirks,
	}
	if !d.ZMapVisible {
		// Alt-Svc-only deployments stay invisible to forced VN.
		policy.AdvertisedVersions = []quicwire.Version{}
	}
	if d.Behavior == BehaviorRequireSNI {
		policy.RequireSNI = true
		policy.CloseReason = closeReasonFor(d.Provider)
	}
	return cfg, policy
}

func (u *Universe) startQUICServer(d *Deployment) error {
	cert, err := u.certFor(d, u.Spec.Week)
	if err != nil {
		return err
	}
	pc, err := u.Net.ListenUDP(netip.AddrPortFrom(d.Addr, 443))
	if err != nil {
		return err
	}
	cfg, policy := d.ListenerSetup(u.Spec.Week, &tls.Config{
		Certificates: []tls.Certificate{cert},
		NextProtos:   []string{"h3", "h3-34", "h3-32", "h3-29", "h3-28", "h3-27"},
	})
	srv := &h3.Server{Handler: u.h3HandlerFor(d)}
	l, err := quic.Listen(pc, cfg, policy, srv.ServeConn)
	if err != nil {
		pc.Close()
		return err
	}
	u.servers.quicLs = append(u.servers.quicLs, l)
	return nil
}

// closeReasonFor reproduces the implementation-specific 0x128 reason
// phrases the paper observed (Cloudflare's wording most prominent,
// Google's second).
func closeReasonFor(provider string) string {
	switch provider {
	case "cloudflare", "cloudflare-london":
		return "handshake failure: no application protocol or server name"
	case "google", "google-edge":
		return "TLS handshake failure (ENCRYPTION_HANDSHAKE) 40: handshake failure"
	default:
		return "handshake failure"
	}
}

func (u *Universe) h3HandlerFor(d *Deployment) h3.Handler {
	week := u.Spec.Week
	return func(req *h3.Request) *h3.Response {
		headers := []h3.HeaderField{
			{Name: "content-type", Value: "text/html; charset=utf-8"},
		}
		if d.ServerHeader != "" {
			headers = append(headers, h3.HeaderField{Name: "server", Value: d.ServerHeader})
		}
		if d.AltVisible && d.Profile.ALPNSet != nil {
			headers = append(headers, h3.HeaderField{Name: "alt-svc", Value: altSvcValue(d.Profile.ALPNSet(week))})
		}
		return &h3.Response{Status: "200", Headers: headers, Body: []byte("<html>quicscan simulated deployment</html>")}
	}
}

func altSvcValue(alpns []string) string {
	services := make([]altsvc.Service, 0, len(alpns))
	for _, a := range alpns {
		services = append(services, altsvc.Service{ALPN: a, Port: 443, MaxAge: 86400})
	}
	return altsvc.Format(services)
}

// startWebServer runs the TLS-over-TCP HTTP/1.1 side of every
// deployment: one server on one listener bound to each deployment's
// :443. The address a client dialled picks the deployment's TLS
// configuration and, in the handler, its headers.
func (u *Universe) startWebServer() error {
	configs := make(map[netip.Addr]*tls.Config, len(u.Deployments))
	addrs := make([]netip.AddrPort, 0, len(u.Deployments))
	for _, d := range u.Deployments {
		tcfg, err := u.webTLSConfig(d)
		if err != nil {
			return fmt.Errorf("internet: web server for %v: %w", d.Addr, err)
		}
		configs[d.Addr] = tcfg
		addrs = append(addrs, netip.AddrPortFrom(d.Addr, 443))
	}
	l, err := u.Net.ListenStream(addrs...)
	if err != nil {
		return fmt.Errorf("internet: web server: %w", err)
	}
	outer := &tls.Config{GetConfigForClient: func(chi *tls.ClientHelloInfo) (*tls.Config, error) {
		return configs[hostOf(chi.Conn.LocalAddr())], nil
	}}
	week := u.Spec.Week
	u.servers.web = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		d := u.ByAddr[hostOf(r.Context().Value(http.LocalAddrContextKey).(net.Addr))]
		if d.ServerHeader != "" {
			rw.Header().Set("Server", d.ServerHeader)
		}
		if d.AltVisible && d.Profile.ALPNSet != nil {
			rw.Header().Set("Alt-Svc", altSvcValue(d.Profile.ALPNSet(week)))
		}
		rw.WriteHeader(200)
	})}
	go u.servers.web.Serve(tls.NewListener(l, outer))
	return nil
}

// webTLSConfig builds a deployment's TLS-over-TCP configuration: its
// certificate generation, its ALPN and version cap, and Google's
// self-signed answer to a ClientHello without SNI.
func (u *Universe) webTLSConfig(d *Deployment) (*tls.Config, error) {
	cert, err := u.certFor(d, u.tcpCertGeneration(d))
	if err != nil {
		return nil, err
	}
	tcfg := &tls.Config{Certificates: []tls.Certificate{cert}}
	if !d.Profile.TCPNoALPN {
		tcfg.NextProtos = []string{"http/1.1"}
	}
	if d.Profile.TCPMaxTLS12Share > 0 && d.Index%d.Profile.TCPMaxTLS12Share == 1 {
		tcfg.MaxVersion = tls.VersionTLS12
	}
	if d.Profile.TCPSelfSignedNoSNI {
		selfSigned, err := u.selfSignedFor(d)
		if err != nil {
			return nil, err
		}
		// Certificates would take precedence over GetCertificate, so
		// the SNI-dependent selection must be the only source.
		tcfg.Certificates = nil
		tcfg.GetCertificate = func(chi *tls.ClientHelloInfo) (*tls.Certificate, error) {
			if chi.ServerName == "" {
				return &selfSigned, nil
			}
			return &cert, nil
		}
	}
	return tcfg, nil
}

// hostOf is the IP address of a simnet stream end.
func hostOf(a net.Addr) netip.Addr { return a.(*net.TCPAddr).AddrPort().Addr() }

// tcpCertGeneration: Google's weekly rotation means the TCP scan can
// observe a different certificate generation than the QUIC scan for a
// share of targets (Section 5.1).
func (u *Universe) tcpCertGeneration(d *Deployment) int {
	if d.Profile.CertRotationWeekly && d.Index%10 == 0 {
		return u.Spec.Week - 1
	}
	return u.Spec.Week
}

// ---- stateless synthetic behaviour -------------------------------------

// syntheticQUIC answers datagrams for addresses without sockets:
// version negotiation for ghosts and mismatching deployments, and
// stateless CONNECTION_CLOSE(0x128) Initials for ghost-0x128
// addresses. Everything else is silence.
func (u *Universe) syntheticQUIC(dst netip.AddrPort, payload []byte) [][]byte {
	if dst.Port() != 443 {
		return nil
	}
	d := u.ByAddr[dst.Addr()]
	if d == nil || !d.ZMapVisible {
		return nil
	}
	hdr, _, err := quicwire.ParseLongHeader(payload)
	if err != nil || hdr.Type != quicwire.PacketInitial {
		return nil
	}
	advertised := d.quicVersionsForWeek(u.Spec.Week)
	if len(advertised) == 0 {
		return nil
	}
	if len(payload) < quicwire.MinInitialSize && !d.Profile.RespondToUnpadded {
		return nil
	}

	accepted := d.acceptedVersions(u.Spec.Week)
	offeredAccepted := false
	for _, v := range accepted {
		if v == hdr.Version {
			offeredAccepted = true
			break
		}
	}

	switch {
	case hdr.Version.IsForcedNegotiation():
		return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, payload[0], advertised)}
	case !offeredAccepted:
		// A version the deployment does not really accept: respond
		// with the *accepted* set. For Google's roll-out anomaly this
		// list lacks the advertised IETF drafts, so the scanner
		// records a version mismatch.
		return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, payload[0], accepted)}
	}

	// The offered version is acceptable; behaviour now depends on the
	// deployment class.
	switch d.Behavior {
	case BehaviorGhostTimeout:
		return nil // middlebox answered VN; end host drops Initials
	case BehaviorGhost0x128, BehaviorRequireSNI:
		// Require-SNI ghosts without a stateful server also reject.
		pkt, err := quic.AppendInitialClose(nil, hdr, quicwire.CryptoError0x128, closeReasonFor(d.Provider))
		if err != nil {
			return nil
		}
		return [][]byte{pkt}
	case BehaviorMismatch:
		return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, payload[0], accepted)}
	default:
		// Active deployment without a stateful server (stateless-only
		// start): drop, which the scanner reports as timeout.
		return nil
	}
}
