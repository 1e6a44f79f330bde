package fingerprint

import (
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"quicscan/internal/listscan"
	"quicscan/internal/probe"
)

// TestRecordGolden pins the -fingerprint NDJSON stream to the lines
// qscanner (with SNI) and zmapquic (without) printed before the two
// CLIs shared one record type.
func TestRecordGolden(t *testing.T) {
	matrix := func(s string) Matrix {
		m, err := parseMatrix(s)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	addr := netip.MustParseAddrPort("127.0.0.1:8443")
	results := []Result{
		{
			Target:  probe.Target{Addr: addr, SNI: "w000001.cloudflare-sites.com"},
			Matrix:  matrix("vn=vn-grease|pad=silent|retry=none|reset=reset|ku=ok|tp=ok|idle=close-0x0"),
			Verdict: Verdict{Name: "cloudflare-quiche", Exact: true},
		},
		{
			Target:  probe.Target{Addr: addr},
			Matrix:  matrix("vn=vn-grease|pad=silent|retry=silent|reset=reset|ku=silent|tp=close-0x128|idle=silent"),
			Verdict: Verdict{Name: verdictUnknown, Distance: 3},
		},
	}
	const want = `{"addr":"127.0.0.1","sni":"w000001.cloudflare-sites.com","matrix":"vn=vn-grease|pad=silent|retry=none|reset=reset|ku=ok|tp=ok|idle=close-0x0","verdict":"cloudflare-quiche","distance":0,"exact":true}
{"addr":"127.0.0.1","matrix":"vn=vn-grease|pad=silent|retry=silent|reset=reset|ku=silent|tp=close-0x128|idle=silent","verdict":"unknown","distance":3,"exact":false}
`
	path := filepath.Join(t.TempDir(), "out.ndjson")
	out, err := listscan.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	listscan.Emit[Result](out)(results)
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
