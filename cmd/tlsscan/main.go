// Command tlsscan performs stateful TLS-over-TCP scans (the
// Goscanner's role): it completes TLS handshakes, issues an HTTP/1.1
// HEAD request and reports Alt-Svc headers — the second discovery
// channel for QUIC deployments.
//
// Targets are a single -addr or a -targets file in qscanner's format.
// One JSON line per target goes to stdout, in input order and while
// the scan runs; SIGINT or SIGTERM, or a record that cannot be written,
// ends it with the summary printed and a non-zero exit.
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"time"

	"quicscan/internal/listscan"
	"quicscan/internal/tlsscan"
)

func main() {
	var (
		targetsFile = flag.String("targets", "", "file with one target per line (addr[,sni])")
		addr        = flag.String("addr", "", "single target address")
		sni         = flag.String("sni", "", "SNI for the single target")
		port        = flag.Int("port", 443, "target TCP port")
		timeout     = flag.Duration("timeout", 3*time.Second, "per-target timeout")
		workers     = flag.Int("workers", 64, "concurrent connections")
	)
	flag.Parse()

	var targets []tlsscan.Target
	switch {
	case *addr != "":
		a, err := netip.ParseAddr(*addr)
		if err != nil {
			fatal("parsing -addr: %v", err)
		}
		targets = append(targets, tlsscan.Target{Addr: a, Port: uint16(*port), SNI: *sni})
	case *targetsFile != "":
		list, err := listscan.ReadTargets(*targetsFile)
		if err != nil {
			fatal("%v", err)
		}
		for _, t := range list {
			targets = append(targets, tlsscan.Target{Addr: t.Addr, Port: uint16(*port), SNI: t.SNI})
		}
	default:
		fatal("one of -addr or -targets is required")
	}

	ctx := listscan.SignalContext()
	out := listscan.NewStream(os.Stdout)
	scanner := &tlsscan.Scanner{Timeout: *timeout, Workers: *workers}
	results := scanner.Stream(ctx, targets, listscan.Emit[tlsscan.Result](out))

	ok, quicCapable := 0, 0
	for i := range results {
		if results[i].OK {
			ok++
		}
		if len(results[i].QUICALPNs) > 0 {
			quicCapable++
		}
	}
	fmt.Fprintf(os.Stderr, "tlsscan: targets=%d ok=%d quic-capable=%d\n", len(targets), ok, quicCapable)
	if err := out.Finish(ctx); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tlsscan: "+format+"\n", args...)
	os.Exit(1)
}
