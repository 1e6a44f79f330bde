// Command dnsscan bulk-resolves domain lists for A, AAAA and HTTPS
// records (the MassDNS role in the paper's pipeline). HTTPS records
// reveal QUIC endpoints — ALPN values plus ipv4hint/ipv6hint
// addresses — with a single recursive query per name.
//
// Names are read one per line from -names. One line per answer goes to
// stdout, in input order and while the scan runs; SIGINT or SIGTERM
// ends it with the summary printed and a non-zero exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"quicscan/internal/dnsclient"
	"quicscan/internal/dnswire"
	"quicscan/internal/listscan"
)

func main() {
	var (
		server  = flag.String("server", "127.0.0.1:53", "DNS server address")
		names   = flag.String("names", "", "file with one domain per line")
		qtype   = flag.String("type", "HTTPS", "record type: A, AAAA or HTTPS")
		workers = flag.Int("workers", 64, "concurrent queries")
		timeout = flag.Duration("timeout", 2*time.Second, "per-query timeout")
	)
	flag.Parse()

	if *names == "" {
		fatal("-names is required")
	}
	var t uint16
	switch strings.ToUpper(*qtype) {
	case "A":
		t = dnswire.TypeA
	case "AAAA":
		t = dnswire.TypeAAAA
	case "HTTPS":
		t = dnswire.TypeHTTPS
	case "SVCB":
		t = dnswire.TypeSVCB
	default:
		fatal("unsupported type %q", *qtype)
	}

	addr, err := net.ResolveUDPAddr("udp", *server)
	if err != nil {
		fatal("resolving -server: %v", err)
	}
	list, err := listscan.ReadNames(*names)
	if err != nil {
		fatal("%v", err)
	}

	ctx := listscan.SignalContext()
	out := listscan.NewStream(os.Stdout)
	cl := &dnsclient.Client{Server: addr, Timeout: *timeout}
	resolved, withRecords := 0, 0
	cl.ResolveStream(ctx, list, t, *workers, func(results []dnsclient.Result) {
		for i := range results {
			r := &results[i]
			if r.Err != nil {
				continue
			}
			resolved++
			switch t {
			case dnswire.TypeA, dnswire.TypeAAAA:
				addrs := r.Addrs()
				if len(addrs) > 0 {
					withRecords++
					fmt.Fprintf(out, "%s\t%s\n", r.Name, strings.Join(addrs, ","))
				}
			default:
				for _, rr := range r.HTTPSRecords() {
					withRecords++
					var alpns, hints []string
					for _, p := range rr.Params {
						for _, a := range p.ALPN {
							alpns = append(alpns, a)
						}
						for _, h := range p.Hints {
							hints = append(hints, h.String())
						}
					}
					fmt.Fprintf(out, "%s\tpriority=%d\talpn=%s\thints=%s\n",
						r.Name, rr.Priority, strings.Join(alpns, ","), strings.Join(hints, ","))
				}
			}
		}
		out.Flush()
	})

	fmt.Fprintf(os.Stderr, "dnsscan: names=%d resolved=%d with-records=%d\n", len(list), resolved, withRecords)
	if err := out.Finish(ctx); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dnsscan: "+format+"\n", args...)
	os.Exit(1)
}
