// Command quicsim serves a sample of the simulated Internet's QUIC
// deployments on real loopback sockets, so qscanner, zmapquic and
// tlsscan can be exercised end to end over the kernel network stack.
//
// It builds a deployment population (the same calibrated model the
// experiments use), binds each sampled deployment to 127.0.0.1 on a
// consecutive port, and prints a manifest:
//
//	port  provider  behavior  advertised-versions  sni-domain
//
// The root CA certificate is written to -ca so scanners can validate.
package main

import (
	"crypto/tls"
	"encoding/pem"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"

	"quicscan/internal/certgen"
	"quicscan/internal/h3"
	"quicscan/internal/internet"
	"quicscan/internal/quic"
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
	defer u.Net.Close()

	ca, err := certgen.NewCA("quicsim Root CA")
	if err != nil {
		fatal("%v", err)
	}
	pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.Certificate().Raw})
	if err := os.WriteFile(*caOut, pemBytes, 0o644); err != nil {
		fatal("writing CA: %v", err)
	}
	fmt.Fprintf(os.Stderr, "quicsim: root CA written to %s\n", *caOut)

	served := 0
	fmt.Println("# port\tprovider\tbehavior\tversions\tsni")
	for _, d := range u.Deployments {
		if served >= *count {
			break
		}
		if d.Behavior != internet.BehaviorActive && d.Behavior != internet.BehaviorRequireSNI {
			continue
		}
		port := *basePort + served
		sni := ""
		if len(d.Domains) > 0 {
			sni = d.Domains[0]
		}
		if err := serveDeployment(ca, d, port, sni, u.Spec.Week, tracer); err != nil {
			fatal("serving %s on port %d: %v", d.Provider, port, err)
		}
		versions := ""
		for i, v := range d.Profile.VersionSet(u.Spec.Week) {
			if i > 0 {
				versions += ","
			}
			versions += v.String()
		}
		fmt.Printf("%d\t%s\t%s\t%s\t%s\n", port, d.Provider, d.Behavior, versions, sni)
		served++
	}
	fmt.Fprintf(os.Stderr, "quicsim: serving %d deployments on 127.0.0.1:%d-%d (QUIC/UDP and HTTPS/TCP); ^C to stop\n",
		served, *basePort, *basePort+served-1)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func serveDeployment(ca *certgen.CA, d *internet.Deployment, port int, sni string, week int, tracer *telemetry.Tracer) error {
	names := []string{"localhost"}
	if sni != "" {
		names = append(names, sni)
	}
	cert, err := ca.Issue(certgen.LeafOptions{DNSNames: names})
	if err != nil {
		return err
	}

	// QUIC + HTTP/3. ListenerSetup realizes the full profile —
	// version sets, SNI policy, and the implementation quirks the
	// fingerprint engine classifies — so `qscanner -fingerprint`
	// works against quicsim exactly as against the in-memory universe.
	pc, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return err
	}
	cfg, policy := d.ListenerSetup(week, &tls.Config{
		Certificates: []tls.Certificate{cert},
		NextProtos:   []string{"h3", "h3-34", "h3-32", "h3-29"},
	})
	cfg.Tracer = tracer
	server := d.ServerHeader
	h3srv := &h3.Server{Handler: func(*h3.Request) *h3.Response {
		return &h3.Response{Status: "200", Headers: []h3.HeaderField{{Name: "server", Value: server}}}
	}}
	if _, err := quic.Listen(pc, cfg, policy, h3srv.ServeConn); err != nil {
		return err
	}

	// HTTPS/TCP with Alt-Svc.
	tl, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return err
	}
	alt := fmt.Sprintf(`h3-29=":%d"; ma=86400`, port)
	hs := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Server", server)
		rw.Header().Set("Alt-Svc", alt)
		rw.WriteHeader(200)
	})}
	go hs.Serve(tls.NewListener(tl, &tls.Config{
		Certificates: []tls.Certificate{cert},
		NextProtos:   []string{"http/1.1"},
	}))
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quicsim: "+format+"\n", args...)
	os.Exit(1)
}
