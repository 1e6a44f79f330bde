package migration_test

import (
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"quicscan/internal/listscan"
	"quicscan/internal/migration"
	"quicscan/internal/probe"
)

// TestRecordGolden pins the -migration NDJSON stream to the lines
// qscanner (with SNI) and zmapquic (without) printed before the two
// CLIs shared one record type: sni and err appear only when set, and
// the SNI is HTML-escaped as encoding/json always did.
func TestRecordGolden(t *testing.T) {
	addr := netip.MustParseAddrPort("127.0.0.1:8443")
	results := []migration.Result{
		{
			Target:  probe.Target{Addr: addr, SNI: "w000001.cloudflare-sites.com"},
			Verdict: migration.VerdictTPDisabled, TPDisabled: true, Honest: true,
		},
		{
			Target:  probe.Target{Addr: addr},
			Verdict: migration.VerdictUnreachable, Honest: true,
			Err: `quic: peer closed connection: CRYPTO_ERROR(0x128) ("handshake failure: no application protocol or server name")`,
		},
		{
			Target:  probe.Target{Addr: addr, SNI: "a<b>.example"},
			Verdict: migration.VerdictUnreachable, Honest: true, Err: "quic: handshake timeout",
		},
		{
			Target:  probe.Target{Addr: netip.MustParseAddrPort("[2001:db8::1]:443")},
			Verdict: migration.VerdictValidateBreak, Challenges: 2,
		},
	}
	const want = `{"addr":"127.0.0.1","sni":"w000001.cloudflare-sites.com","verdict":"tp-disabled","tp_disabled":true,"challenges":0,"honest":true}
{"addr":"127.0.0.1","verdict":"unreachable","tp_disabled":false,"challenges":0,"honest":true,"err":"quic: peer closed connection: CRYPTO_ERROR(0x128) (\"handshake failure: no application protocol or server name\")"}
{"addr":"127.0.0.1","sni":"a\u003cb\u003e.example","verdict":"unreachable","tp_disabled":false,"challenges":0,"honest":true,"err":"quic: handshake timeout"}
{"addr":"2001:db8::1","verdict":"validate-break","tp_disabled":false,"challenges":2,"honest":false}
`
	path := filepath.Join(t.TempDir(), "out.ndjson")
	out, err := listscan.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	listscan.Emit[migration.Result](out)(results)
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
