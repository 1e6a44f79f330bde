// Campaign: a miniature end-to-end measurement campaign, the workflow
// of the paper's Section 3 compressed into one program:
//
//  1. discover QUIC deployments three ways — ZMap version
//     negotiation sweep, DNS HTTPS-RR resolution, TLS-over-TCP
//     Alt-Svc collection,
//  2. join the discoveries with DNS A-record resolutions,
//  3. scan everything statefully with the QScanner, and
//  4. print the resulting Table-1/Table-3-style summaries.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"quicscan/internal/analysis"
	"quicscan/internal/campaign"
	"quicscan/internal/core"
	"quicscan/internal/dnsclient"
	"quicscan/internal/dnswire"
	"quicscan/internal/internet"
	"quicscan/internal/tlsscan"
	"quicscan/internal/zmapquic"
)

func main() {
	u := internet.Build(internet.Spec{Seed: 11, Scale: 16384, ASScale: 64, DomainScale: 65536})
	if err := u.Start(internet.StartOptions{Stateful: true, Web: true}); err != nil {
		log.Fatal(err)
	}
	defer u.Stop()
	ctx := context.Background()

	// --- 1a. ZMap sweep over the IPv4 space ---------------------------
	pc, err := u.Net.DialUDP()
	if err != nil {
		log.Fatal(err)
	}
	zs := &zmapquic.Scanner{Conn: pc}
	eng, err := campaign.New(campaign.Config{
		Sweep: zmapquic.NewSweep(1, u.V4Prefixes()),
		Probe: campaign.ProbeWith(zs),
	})
	if err != nil {
		log.Fatal(err)
	}
	var zmapResults []zmapquic.Result
	err = eng.Sweep(ctx, zs, []net.PacketConn{pc}, 500*time.Millisecond, func(r zmapquic.Result) {
		zmapResults = append(zmapResults, r)
	})
	if err != nil {
		log.Fatal(err)
	}
	probes := eng.Progress().Probes
	fmt.Printf("ZMap sweep:   %d probes (%d bytes), %d QUIC-capable addresses\n",
		probes, probes*zmapquic.ProbeSize, len(zmapResults))

	// --- 1b. DNS HTTPS-RR scan over the top lists ---------------------
	cl := &dnsclient.Client{
		Server:     net.UDPAddrFromAddrPort(internet.DNSAddr),
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		Timeout:    time.Second,
	}
	var names []string
	for _, list := range u.SourceLists {
		names = append(names, list...)
	}
	rrHints := make(map[netip.Addr]bool)
	for _, res := range cl.ResolveBatch(ctx, names, dnswire.TypeHTTPS, 64) {
		for _, rr := range res.HTTPSRecords() {
			for _, p := range rr.Params {
				for _, h := range p.Hints {
					rrHints[h] = true
				}
			}
		}
	}
	fmt.Printf("HTTPS DNS RR: %d names resolved, %d hinted addresses\n", len(names), len(rrHints))

	// --- 1c. Alt-Svc collection from TLS-over-TCP scans ---------------
	ts := &tlsscan.Scanner{
		Dial: func(ctx context.Context, ap netip.AddrPort) (net.Conn, error) {
			return u.Net.DialStream(ap)
		},
		RootCAs: u.RootCAs(),
		Timeout: time.Second,
		Workers: 32,
	}
	// Join DNS A records for SNI values.
	domainsByAddr := make(map[netip.Addr][]string)
	for _, res := range cl.ResolveBatch(ctx, names, dnswire.TypeA, 64) {
		for _, rr := range res.Records {
			if rr.Type == dnswire.TypeA {
				domainsByAddr[rr.Addr] = append(domainsByAddr[rr.Addr], res.Name)
			}
		}
	}
	var tlsTargets []tlsscan.Target
	for _, d := range u.Deployments {
		if d.Addr.Is4() {
			sni := ""
			if doms := domainsByAddr[d.Addr]; len(doms) > 0 {
				sni = doms[0]
			}
			tlsTargets = append(tlsTargets, tlsscan.Target{Addr: d.Addr, SNI: sni})
		}
	}
	altAddrs := make(map[netip.Addr][]string)
	for _, res := range ts.Scan(ctx, tlsTargets) {
		if res.OK && len(res.QUICALPNs) > 0 {
			altAddrs[res.Target.Addr] = res.QUICALPNs
		}
	}
	fmt.Printf("Alt-Svc:      %d TLS targets, %d advertising HTTP/3\n\n", len(tlsTargets), len(altAddrs))

	// --- 2+3. Combine sources and scan statefully ----------------------
	var noSNI, withSNI []core.Target
	seen := make(map[netip.Addr]bool)
	addSNI := func(addr netip.Addr, source string) {
		for _, dom := range domainsByAddr[addr] {
			withSNI = append(withSNI, core.Target{Addr: addr, SNI: dom, Source: source})
		}
	}
	for _, r := range zmapResults {
		noSNI = append(noSNI, core.Target{Addr: r.Addr, Source: "zmap"})
		seen[r.Addr] = true
		addSNI(r.Addr, "zmap")
	}
	for addr := range altAddrs {
		addSNI(addr, "alt-svc")
	}
	for addr := range rrHints {
		addSNI(addr, "https-rr")
	}

	qs := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:    u.RootCAs(),
		Timeout:    time.Second,
		Workers:    64,
	}
	defer qs.Close()
	resNoSNI := qs.Scan(ctx, noSNI)
	resSNI := qs.Scan(ctx, withSNI)

	// --- 4. Report -----------------------------------------------------
	fmt.Println("stateful scan outcomes (Table 3 shape):")
	fmt.Printf("  no SNI: %s\n", core.Summarize(resNoSNI))
	fmt.Printf("  SNI:    %s\n\n", core.Summarize(resSNI))

	fmt.Println("per-source success (Table 4 shape):")
	for src, sum := range analysis.PerSourceSuccess(resSNI) {
		fmt.Printf("  %-9s targets %5d  success %6.2f%%\n", src, sum.Total, sum.Rate(core.OutcomeSuccess))
	}

	top := analysis.TopProviders(u.ASDB, keysOf(altAddrs), domainsByAddr, 3)
	fmt.Println("\ntop providers by Alt-Svc discovery (Table 2 shape):")
	for i, p := range top {
		fmt.Printf("  %d. %-28s %4d addresses, %d domains\n", i+1, p.Name, p.Addresses, p.Domains)
	}
}

func keysOf(m map[netip.Addr][]string) []netip.Addr {
	out := make([]netip.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	return out
}
