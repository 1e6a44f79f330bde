// Command qscanner is the stateful QUIC scanner: it completes full
// QUIC handshakes with targets (IP addresses, optionally paired with
// a domain used as SNI), classifies the outcome and records TLS
// properties, transport parameters and the HTTP/3 Server header.
//
// Targets are read one per line from -targets (or a single -addr):
//
//	192.0.2.10
//	192.0.2.10,www.example.org
//	2001:db8::1,v6.example.org,https-rr
//
// The optional third field tags the discovery source, which the
// analysis uses for per-source success rates. Results are emitted as
// JSON lines on stdout or -output, in input order and while the scan
// runs. SIGINT or SIGTERM stops it: no further target is dialled,
// those never started are recorded with the context error, the summary
// is printed and the exit is non-zero, as it is when a record cannot be
// written. -fingerprint, -migration and -resumption replace the scan
// with one classification pass over the same targets, same stream,
// same stop.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strings"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/fingerprint"
	"quicscan/internal/listscan"
	"quicscan/internal/migration"
	"quicscan/internal/probe"
	"quicscan/internal/quic"
	"quicscan/internal/quicwire"
	"quicscan/internal/resumption"
	"quicscan/internal/telemetry"
)

func main() {
	var (
		targetsFile = flag.String("targets", "", "file with one target per line (addr[,sni[,source]])")
		addr        = flag.String("addr", "", "single target address")
		sni         = flag.String("sni", "", "SNI for the single target")
		port        = flag.Int("port", 443, "target UDP port")
		timeout     = flag.Duration("timeout", 3*time.Second, "per-target handshake timeout")
		workers     = flag.Int("workers", 64, "concurrent connections")
		pool        = flag.Int("pool", runtime.GOMAXPROCS(0), "UDP sockets in the shared transport pool")
		output      = flag.String("output", "", "output file (default stdout)")
		versions    = flag.String("versions", "", "comma-separated QUIC versions to offer (e.g. draft-29,ietf-01)")
		skipHTTP    = flag.Bool("no-http", false, "skip the HTTP/3 HEAD request")
		retries     = flag.Int("retries", 0, "re-probe silent targets up to this many times")
		retryWait   = flag.Duration("retry-backoff", 200*time.Millisecond, "initial pause before a re-probe (doubles per attempt)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, JSON /metricz and pprof on this address (e.g. 127.0.0.1:9090)")
		qlogDir     = flag.String("qlog-dir", "", "write one qlog-style JSON-seq trace file per connection into this directory")
		fprint      = flag.Bool("fingerprint", false, "run the behavioral fingerprint scenario suite per target and emit verdicts instead of scanning")
		migrate     = flag.Bool("migration", false, "classify connection-migration support per target (NAT-rebind probe where the socket allows it, transport-parameter fallback otherwise) instead of scanning")
		resume      = flag.Bool("resumption", false, "classify the handshake fast path per target (session tickets, 0-RTT, NEW_TOKEN reuse) instead of scanning")
		rescan      = flag.Bool("rescan", false, "scan the target list twice through a shared session cache; the second pass resumes and sends the HTTP/3 request as 0-RTT early data")
	)
	flag.Parse()

	// The modes replace the scan rather than stack on it, so asking
	// for two at once has no meaning to guess at.
	mode := ""
	for _, m := range []struct {
		name string
		set  bool
	}{{"fingerprint", *fprint}, {"migration", *migrate}, {"resumption", *resume}, {"rescan", *rescan}} {
		if !m.set {
			continue
		}
		if mode != "" {
			fatal("-%s and -%s are mutually exclusive (at most one of -fingerprint, -migration, -resumption, -rescan)", mode, m.name)
		}
		mode = m.name
	}

	if *metricsAddr != "" {
		srv, ln, err := telemetry.Default().Serve(*metricsAddr)
		if err != nil {
			fatal("starting metrics server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "qscanner: metrics on http://%s/metrics\n", ln)
	}

	var targets []core.Target
	switch {
	case *addr != "":
		a, err := netip.ParseAddr(*addr)
		if err != nil {
			fatal("parsing -addr: %v", err)
		}
		targets = append(targets, core.Target{Addr: a, Port: uint16(*port), SNI: *sni})
	case *targetsFile != "":
		list, err := listscan.ReadTargets(*targetsFile)
		if err != nil {
			fatal("%v", err)
		}
		for _, t := range list {
			targets = append(targets, core.Target{Addr: t.Addr, Port: uint16(*port), SNI: t.SNI, Source: t.Source})
		}
	default:
		fatal("one of -addr or -targets is required")
	}

	ctx := listscan.SignalContext()
	out, err := listscan.Create(*output)
	if err != nil {
		fatal("%v", err)
	}

	if mode != "" && mode != "rescan" {
		finish(ctx, out, runMode(ctx, mode, targets, *workers, out))
		return
	}

	scanner := &core.Scanner{
		Timeout:      *timeout,
		Retries:      *retries,
		RetryBackoff: *retryWait,
		Workers:      *workers,
		PoolSize:     *pool,
		SkipHTTP:     *skipHTTP,
	}
	defer scanner.Close()
	if *qlogDir != "" {
		tracer, err := telemetry.NewTracer(*qlogDir)
		if err != nil {
			fatal("creating qlog dir: %v", err)
		}
		scanner.Tracer = tracer
	}
	if *versions != "" {
		for _, name := range strings.Split(*versions, ",") {
			v, ok := quicwire.ParseVersionName(strings.TrimSpace(name))
			if !ok {
				fatal("unknown version %q", name)
			}
			scanner.Versions = append(scanner.Versions, v)
		}
	}

	if *rescan {
		scanner.SessionCache = quic.NewSessionCache(0)
		// This pass populates the cache; the one that is recorded
		// resumes, replays NEW_TOKENs and rides the request in 0-RTT.
		first := core.Summarize(scanner.Scan(ctx, targets))
		fmt.Fprintf(os.Stderr, "qscanner: first pass %s\n", first)
	}
	results := scanner.Stream(ctx, targets, listscan.Emit[core.Result](out))
	finish(ctx, out, core.Summarize(results).String())
}

// finish ends a scan that streamed its records to out: the summary is
// printed, and a stream that could not be written in full or a scan
// stopped by a signal is a non-zero exit.
func finish(ctx context.Context, out *listscan.Stream, summary string) {
	fmt.Fprintf(os.Stderr, "qscanner: %s\n", summary)
	if err := out.Finish(ctx); err != nil {
		fatal("%v", err)
	}
}

// runMode runs one behavioural scan mode in place of the scan, streams
// one JSON verdict per target and line to out and returns the summary
// line. Kernel UDP sockets cannot rebind mid-connection, so outside the
// simulation -migration verdicts degrade to the advertised transport
// parameter (tp-allows / tp-disabled).
func runMode(ctx context.Context, mode string, targets []core.Target, workers int, out *listscan.Stream) string {
	pts := make([]probe.Target, len(targets))
	for i, t := range targets {
		port := t.Port
		if port == 0 {
			port = 443
		}
		pts[i] = probe.Target{Addr: netip.AddrPortFrom(t.Addr, port), SNI: t.SNI}
	}
	d := probe.Dialer{DialPacket: func() (net.PacketConn, error) { return net.ListenPacket("udp", ":0") }}
	counts := make(map[string]int)
	switch mode {
	case "fingerprint":
		results := (&fingerprint.Prober{Dialer: d}).Scan(ctx, workers, pts, listscan.Emit[fingerprint.Result](out))
		exact := 0
		for _, r := range results {
			if r.Verdict.Exact {
				exact++
			}
		}
		return fmt.Sprintf("fingerprinted %d targets, %d exact matches", len(results), exact)
	case "migration":
		results := (&migration.Prober{Dialer: d}).Scan(ctx, workers, pts, listscan.Emit[migration.Result](out))
		for _, r := range results {
			counts[r.Verdict]++
		}
		return fmt.Sprintf("migration-probed %d targets: %v", len(results), counts)
	default:
		results := (&resumption.Prober{Dialer: d}).Scan(ctx, workers, pts, listscan.Emit[resumption.Result](out))
		for _, r := range results {
			counts[r.Verdict]++
		}
		return fmt.Sprintf("resumption-probed %d targets: %v", len(results), counts)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qscanner: "+format+"\n", args...)
	os.Exit(1)
}
