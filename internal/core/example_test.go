package core_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/internet"
)

// Scan one Cloudflare-style deployment that requires SNI, once without
// SNI (the generic crypto error 0x128 that dominates the paper's Table
// 3) and once with it.
func ExampleScanner_ScanTarget() {
	u := internet.Build(internet.Spec{Seed: 3, Scale: 16384, ASScale: 64, DomainScale: 65536})
	if err := u.Start(internet.StartOptions{Stateful: true, Web: true}); err != nil {
		log.Fatal(err)
	}
	defer u.Stop()
	var d *internet.Deployment
	for _, c := range u.Deployments {
		if c.Behavior == internet.BehaviorRequireSNI && len(c.Domains) > 0 && c.Addr.Is4() {
			d = c
			break
		}
	}
	s := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:    u.RootCAs(),
		Timeout:    2 * time.Second,
	}
	defer s.Close()

	fmt.Printf("target: %s (%s, AS%d), domain %s\n", d.Addr, d.Provider, d.ASN, d.Domains[0])
	res := s.ScanTarget(context.Background(), core.Target{Addr: d.Addr})
	fmt.Println("no SNI:", res.Outcome)
	res = s.ScanTarget(context.Background(), core.Target{Addr: d.Addr, SNI: d.Domains[0]})
	fmt.Println("SNI:   ", res.Outcome)
	fmt.Println("version:", res.QUICVersion, "ALPN:", res.TLS.ALPN)
	fmt.Printf("certificate: %s, valid=%t\n", res.TLS.CertCommonName, res.TLS.CertValid)
	fmt.Println("HTTP/3:", res.HTTP.Status, res.HTTP.Server)
	fmt.Println("max_udp_payload_size:", res.TransportParams.MaxUDPPayloadSize)
	// Output:
	// target: 11.0.0.3 (cloudflare, AS13335), domain w000005.cloudflare-sites.com
	// no SNI: crypto_error_0x128
	// SNI:    success
	// version: draft-29 ALPN: h3
	// certificate: cloudflare.sim, valid=true
	// HTTP/3: 200 cloudflare
	// max_udp_payload_size: 65527
}
