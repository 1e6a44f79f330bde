// Command quicsim serves a sample of the simulated Internet's QUIC
// deployments on real loopback sockets, so qscanner, zmapquic and
// tlsscan can be exercised end to end over the kernel network stack.
//
// It builds a deployment population (the same calibrated model the
// experiments use) and serves the first -count deployments that
// complete handshakes with the universe's own servers: deployment i on
// 127.0.0.1, UDP and TCP port -base-port+i. It prints a manifest:
//
//	port  provider  behavior  advertised-versions  sni-domain
//
// The root CA certificate is written to -ca for clients outside this
// module: no command here reads it (the scanners check chains against
// the system roots, so they record quicsim's as invalid), while
// curl --cacert FILE --resolve SNI:PORT:127.0.0.1 https://SNI:PORT/
// validates the served chain.
package main

import (
	"encoding/pem"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"quicscan/internal/internet"
	"quicscan/internal/telemetry"
)

func main() {
	var (
		count    = flag.Int("count", 16, "number of deployments to serve")
		basePort = flag.Int("base-port", 8443, "first UDP/TCP port")
		seed     = flag.Uint64("seed", 1, "population seed")
		caOut    = flag.String("ca", "quicsim-ca.pem", "file to write the root CA certificate to")
		metrics  = flag.String("metrics-addr", "", "serve Prometheus /metrics, JSON /metricz and pprof on this address")
		qlogDir  = flag.String("qlog-dir", "", "write one server-side qlog-style trace file per accepted connection into this directory")
	)
	flag.Parse()

	if *metrics != "" {
		srv, ln, err := telemetry.Default().Serve(*metrics)
		if err != nil {
			fatal("starting metrics server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "quicsim: metrics on http://%s/metrics\n", ln)
	}
	var tracer *telemetry.Tracer
	if *qlogDir != "" {
		var err error
		tracer, err = telemetry.NewTracer(*qlogDir)
		if err != nil {
			fatal("creating qlog dir: %v", err)
		}
	}

	u := internet.Build(internet.Spec{Seed: *seed, Scale: 16384, ASScale: 64, DomainScale: 65536})
	if err := u.Start(internet.StartOptions{}); err != nil {
		fatal("%v", err)
	}
	defer u.Stop()
	served, err := u.ServeLoopback(*count, *basePort, tracer)
	if err != nil {
		fatal("%v", err)
	}

	pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: u.RootCert().Raw})
	if err := os.WriteFile(*caOut, pemBytes, 0o644); err != nil {
		fatal("writing CA: %v", err)
	}
	fmt.Fprintf(os.Stderr, "quicsim: root CA written to %s\n", *caOut)

	fmt.Println("# port\tprovider\tbehavior\tversions\tsni")
	for i, d := range served {
		sni := ""
		if len(d.Domains) > 0 {
			sni = d.Domains[0]
		}
		versions := ""
		for j, v := range d.Profile.VersionSet(u.Spec.Week) {
			if j > 0 {
				versions += ","
			}
			versions += v.String()
		}
		fmt.Printf("%d\t%s\t%s\t%s\t%s\n", *basePort+i, d.Provider, d.Behavior, versions, sni)
	}
	fmt.Fprintf(os.Stderr, "quicsim: serving %d deployments on 127.0.0.1:%d-%d (QUIC/UDP and HTTPS/TCP); ^C to stop\n",
		len(served), *basePort, *basePort+len(served)-1)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quicsim: "+format+"\n", args...)
	os.Exit(1)
}
