package quicscan

// The handshake benchmarks measure the scanner's cost of a dial, not
// the responder's: a real campaign pays only the client side of each
// handshake, while the server's CPU and allocations belong to the
// remote deployment. Running the HTTP/3 responder inside the benchmark
// process would fold the server's TLS key schedule and packetization
// into every ns/op and allocs/op sample and drown out the fast-path
// win. The responder therefore runs as a child process (this test
// binary re-executed with QUICSCAN_BENCH_H3_SERVER=1) answering over
// real loopback UDP, so the benchmark numbers count scanner-side work
// only — exactly what "Ten Years of ZMap"-style repeat-scan economics
// are about.
//
// The responder serves an RSA-2048 leaf, matching the RSA certificates
// that dominated the web PKI during the paper's measurement window:
// every full handshake then carries an RSA CertificateVerify signature
// for the server to compute and the scanner to validate, which is
// precisely the per-target cost a resumed dial amortizes away.

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"testing"

	"quicscan/internal/certgen"
	"quicscan/internal/h3"
	"quicscan/internal/quic"
)

const benchServerEnv = "QUICSCAN_BENCH_H3_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(benchServerEnv) == "1" {
		if err := benchH3ServerMain(); err != nil {
			fmt.Fprintln(os.Stderr, "bench server:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchServerHello is the one-line JSON handshake the child prints on
// stdout before serving.
type benchServerHello struct {
	Addr  string `json:"addr"`
	CAPEM string `json:"ca_pem"`
}

// benchH3ServerMain runs the loopback HTTP/3 responder until stdin
// closes (i.e. until the parent benchmark process exits or cleans up).
func benchH3ServerMain() error {
	ca, err := certgen.NewCA("bench-ca")
	if err != nil {
		return err
	}
	inter, err := ca.Intermediate("bench-intermediate", true)
	if err != nil {
		return err
	}
	cert, err := inter.Issue(certgen.LeafOptions{DNSNames: []string{"bench.example"}, RSA: true})
	if err != nil {
		return err
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &h3.Server{Handler: func(*h3.Request) *h3.Response {
		return &h3.Response{Status: "200", Headers: []h3.HeaderField{{Name: "server", Value: "bench"}}}
	}}
	l, err := quic.Listen(pc, &quic.Config{
		TLS: &tls.Config{Certificates: []tls.Certificate{cert}, NextProtos: []string{"h3"}},
	}, quic.ServerPolicy{}, srv.ServeConn)
	if err != nil {
		return err
	}
	defer l.Close()

	hello := benchServerHello{
		Addr:  pc.LocalAddr().String(),
		CAPEM: string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.Certificate().Raw})),
	}
	enc, err := json.Marshal(hello)
	if err != nil {
		return err
	}
	if _, err := fmt.Println(string(enc)); err != nil {
		return err
	}
	// Serve until the parent hangs up.
	io.Copy(io.Discard, os.Stdin)
	return nil
}

// startBenchH3Server spawns the loopback responder and returns its
// address and a root pool trusting its CA. The child is torn down via
// tb.Cleanup.
func startBenchH3Server(tb testing.TB) (netip.AddrPort, *x509.CertPool) {
	tb.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), benchServerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		tb.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		tb.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		stdin.Close()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		tb.Fatalf("bench server handshake: %v", err)
	}
	var hello benchServerHello
	if err := json.Unmarshal([]byte(line), &hello); err != nil {
		tb.Fatalf("bench server handshake: %v (line %q)", err, line)
	}
	addr, err := netip.ParseAddrPort(hello.Addr)
	if err != nil {
		tb.Fatalf("bench server addr: %v", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM([]byte(hello.CAPEM)) {
		tb.Fatal("bench server CA did not parse")
	}
	return addr, pool
}
