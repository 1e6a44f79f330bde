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
// JSON lines on stdout or -output.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"strings"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/fingerprint"
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
		pool        = flag.Int("pool", 0, "UDP sockets in the shared transport pool (default GOMAXPROCS)")
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
		var err error
		targets, err = readTargets(*targetsFile, uint16(*port))
		if err != nil {
			fatal("%v", err)
		}
	default:
		fatal("one of -addr or -targets is required")
	}

	if mode != "" && mode != "rescan" {
		runMode(mode, targets, *workers, *output)
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
	}
	results := scanner.Scan(context.Background(), targets)
	if *rescan {
		// The first pass populated the cache; this pass resumes,
		// replays NEW_TOKENs and rides the request in 0-RTT.
		first := core.Summarize(results)
		fmt.Fprintf(os.Stderr, "qscanner: first pass %s\n", first)
		results = scanner.Scan(context.Background(), targets)
	}

	out := os.Stdout
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		out = f
	}
	if err := core.WriteJSONL(out, results); err != nil {
		fatal("writing results: %v", err)
	}

	sum := core.Summarize(results)
	fmt.Fprintf(os.Stderr, "qscanner: %s\n", sum)
}

// runMode runs one behavioural scan mode in place of the scan and
// emits one JSON verdict per target and line. Kernel UDP sockets
// cannot rebind mid-connection, so outside the simulation -migration
// verdicts degrade to the advertised transport parameter (tp-allows /
// tp-disabled).
func runMode(mode string, targets []core.Target, workers int, output string) {
	pts := make([]probe.Target, len(targets))
	for i, t := range targets {
		port := t.Port
		if port == 0 {
			port = 443
		}
		pts[i] = probe.Target{Addr: netip.AddrPortFrom(t.Addr, port), SNI: t.SNI}
	}
	ctx := context.Background()
	d := probe.Dialer{DialPacket: func() (net.PacketConn, error) { return net.ListenPacket("udp", ":0") }}
	var (
		err     error
		summary string
		counts  = make(map[string]int)
	)
	switch mode {
	case "fingerprint":
		results := probe.Run(ctx, workers, pts, (&fingerprint.Prober{Dialer: d}).Fingerprint)
		err = probe.WriteNDJSON(output, results)
		exact := 0
		for _, r := range results {
			if r.Verdict.Exact {
				exact++
			}
		}
		summary = fmt.Sprintf("fingerprinted %d targets, %d exact matches", len(results), exact)
	case "migration":
		results := probe.Run(ctx, workers, pts, (&migration.Prober{Dialer: d}).Probe)
		err = probe.WriteNDJSON(output, results)
		for _, r := range results {
			counts[r.Verdict]++
		}
		summary = fmt.Sprintf("migration-probed %d targets: %v", len(results), counts)
	case "resumption":
		results := probe.Run(ctx, workers, pts, (&resumption.Prober{Dialer: d}).Probe)
		err = probe.WriteNDJSON(output, results)
		for _, r := range results {
			counts[r.Verdict]++
		}
		summary = fmt.Sprintf("resumption-probed %d targets: %v", len(results), counts)
	}
	if err != nil {
		fatal("writing verdicts: %v", err)
	}
	fmt.Fprintf(os.Stderr, "qscanner: %s\n", summary)
}

func readTargets(path string, port uint16) ([]core.Target, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []core.Target
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		a, err := netip.ParseAddr(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		t := core.Target{Addr: a, Port: port}
		if len(parts) > 1 {
			t.SNI = strings.TrimSpace(parts[1])
		}
		if len(parts) > 2 {
			t.Source = strings.TrimSpace(parts[2])
		}
		out = append(out, t)
	}
	return out, sc.Err()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qscanner: "+format+"\n", args...)
	os.Exit(1)
}
