package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"quicscan/internal/fingerprint"
	"quicscan/internal/internet"
	"quicscan/internal/migration"
	"quicscan/internal/quic"
	"quicscan/internal/resumption"
)

// TestModeTablesGolden feeds canned probe results through the shared
// tabulation and compares the three renderers with text the parent of
// the probe-engine refactor rendered for the same tables (testdata/
// modes_*.golden). No network: this is also the only tier-1 cover of
// the MIGRATION table, which smallCampaign leaves off.
func TestModeTablesGolden(t *testing.T) {
	nginx := &internet.Profile{Name: "nginx", Impl: "nginx-quic", Quirks: quic.Quirks{
		Migration: quic.MigrationDisabled, Resumption: quic.Resumption0RTT}}
	google := &internet.Profile{Name: "google", Impl: "google-quic", Quirks: quic.Quirks{
		Migration: quic.MigrationSupported, Resumption: quic.ResumptionNoTicket}}
	amazon := &internet.Profile{Name: "amazon", Impl: "cloud-mixed", Quirks: quic.Quirks{
		Migration: quic.MigrationValidateBreak, Resumption: quic.ResumptionDowngrade}}
	// Profiles deliberately interleaved and out of name order.
	deps := []*internet.Deployment{
		{Profile: nginx}, {Profile: google}, {Profile: amazon}, {Profile: google}, {Profile: nginx},
	}

	verdict := func(name string) fingerprint.Result {
		return fingerprint.Result{Verdict: fingerprint.Verdict{Name: name}}
	}
	r := &Report{
		FingerprintConfusion: confuseFingerprint(deps, []fingerprint.Result{
			verdict("nginx-quic"), verdict("google-quic"), verdict("gvs"), verdict("google-quic"), verdict("unknown"),
		}),
		MigrationTable: tabulateMigration(deps, []migration.Result{
			{Verdict: migration.VerdictDisabled},
			{Verdict: migration.VerdictSupported},
			{Verdict: migration.VerdictValidateBreak, TPDisabled: true},
			{Verdict: migration.VerdictUnreachable, Err: "quic: handshake timeout"},
			{Verdict: migration.VerdictDisabled, TPDisabled: true},
		}),
		ResumptionTable: tabulateResumption(deps, []resumption.Result{
			{Verdict: resumption.Verdict0RTT, TokenReused: true},
			{Verdict: resumption.VerdictNoTicket},
			{Verdict: resumption.VerdictDowngrade},
			{Verdict: resumption.VerdictNoTicket},
			{Verdict: resumption.VerdictTicketNo0RTT},
		}),
	}
	for name, got := range map[string]string{
		"fingerprint": r.RenderFingerprint(),
		"migration":   r.RenderMigration(),
		"resumption":  r.RenderResumption(),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "modes_"+name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s render diverges from the parent's:\n got:\n%s\n want:\n%s", name, got, want)
		}
	}
}
