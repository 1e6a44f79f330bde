package resumption_test

import (
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"quicscan/internal/listscan"
	"quicscan/internal/probe"
	"quicscan/internal/resumption"
)

// TestRecordGolden pins the -resumption NDJSON stream to the lines
// qscanner (with SNI) and zmapquic (without) printed before the two
// CLIs shared one record type: sni and err appear only when set.
func TestRecordGolden(t *testing.T) {
	addr := netip.MustParseAddrPort("127.0.0.1:8443")
	results := []resumption.Result{
		{
			Target:  probe.Target{Addr: addr, SNI: "w000001.cloudflare-sites.com"},
			Verdict: resumption.Verdict0RTT, TicketIssued: true, Resumed: true, ZeroRTTAccepted: true, RequestOK: true,
		},
		{
			Target:  probe.Target{Addr: addr},
			Verdict: resumption.Verdict0RTT, TicketIssued: true, Resumed: true, ZeroRTTAccepted: true, TokenReused: true, RequestOK: true,
		},
		{
			Target:  probe.Target{Addr: addr},
			Verdict: resumption.VerdictUnreachable, Err: "quic: handshake timeout",
		},
		{
			Target:  probe.Target{Addr: addr, SNI: "a.example"},
			Verdict: resumption.VerdictUnreachable, Err: "quic: handshake timeout",
		},
	}
	const want = `{"addr":"127.0.0.1","sni":"w000001.cloudflare-sites.com","verdict":"0rtt","ticket":true,"resumed":true,"zero_rtt":true,"token_reused":false,"request_ok":true}
{"addr":"127.0.0.1","verdict":"0rtt","ticket":true,"resumed":true,"zero_rtt":true,"token_reused":true,"request_ok":true}
{"addr":"127.0.0.1","verdict":"unreachable","ticket":false,"resumed":false,"zero_rtt":false,"token_reused":false,"request_ok":false,"err":"quic: handshake timeout"}
{"addr":"127.0.0.1","sni":"a.example","verdict":"unreachable","ticket":false,"resumed":false,"zero_rtt":false,"token_reused":false,"request_ok":false,"err":"quic: handshake timeout"}
`
	path := filepath.Join(t.TempDir(), "out.ndjson")
	out, err := listscan.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	listscan.Emit[resumption.Result](out)(results)
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("stream diverges:\n got:\n%s want:\n%s", got, want)
	}
}
