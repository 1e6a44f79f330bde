package experiments

import (
	"os"
	"strings"
	"testing"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/internet"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
)

// runSmallCampaign executes a reduced two-week campaign once per test
// binary.
var cachedReport *Report

func smallCampaign(t *testing.T) *Report {
	t.Helper()
	if cachedReport != nil {
		return cachedReport
	}
	opts := Options{
		Spec:        internet.Spec{Seed: 7, Scale: 8192, ASScale: 48, DomainScale: 32768},
		Weeks:       []int{9, 18},
		Workers:     128, // one round of timers for the universe's ~80 silent targets, not two
		Fingerprint: true,
		Resumption:  true,
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	cachedReport = rep
	return rep
}

func TestCampaignTable3Shape(t *testing.T) {
	r := smallCampaign(t)
	noSNI := core.Summarize(r.StatefulNoSNIV4)
	sni := core.Summarize(r.StatefulSNIV4)
	if noSNI.Total == 0 || sni.Total == 0 {
		t.Fatalf("empty stateful scans: noSNI=%d sni=%d", noSNI.Total, sni.Total)
	}
	// The paper's central Table 3 contrast: SNI success (76%) far above
	// no-SNI success (7.25%).
	if sni.Rate(core.OutcomeSuccess) <= noSNI.Rate(core.OutcomeSuccess) {
		t.Errorf("SNI success %.1f%% should exceed no-SNI %.1f%%",
			sni.Rate(core.OutcomeSuccess), noSNI.Rate(core.OutcomeSuccess))
	}
	if sni.Rate(core.OutcomeSuccess) < 50 {
		t.Errorf("SNI success only %.1f%%", sni.Rate(core.OutcomeSuccess))
	}
	if noSNI.Rate(core.OutcomeSuccess) > 30 {
		t.Errorf("no-SNI success %.1f%% too high", noSNI.Rate(core.OutcomeSuccess))
	}
	// All three error classes must appear in the no-SNI scan.
	if noSNI.CryptoError == 0 || noSNI.Timeout == 0 || noSNI.VersionMismatch == 0 {
		t.Errorf("missing error classes: %+v", noSNI)
	}
	// Crypto 0x128 dominates errors, as in the paper (~48%).
	if noSNI.CryptoError < noSNI.VersionMismatch {
		t.Errorf("0x128 (%d) should exceed version mismatch (%d)", noSNI.CryptoError, noSNI.VersionMismatch)
	}
	t.Logf("no-SNI: %s", noSNI)
	t.Logf("SNI:    %s", sni)
}

// TestCampaignStatefulMatchesOracle scores every stateful result of the
// headline week with the universe's ground truth: outcome, transport
// parameters and, on success, the Server header. Under the race
// detector a handshake or a HEAD can outlast its 2 s timer (see
// raceEnabled); there a slow answer may turn into a timeout, but never
// into another answer.
func TestCampaignStatefulMatchesOracle(t *testing.T) {
	r := smallCampaign(t)
	n, off := 0, 0
	for list, results := range r.statefulLists() {
		for _, res := range results {
			n++
			err := r.Universe.Expect(res)
			if err == nil {
				continue
			}
			off++
			timedOut := res.Outcome == core.OutcomeTimeout || res.HTTP != nil && !res.HTTP.RequestOK
			if !(raceEnabled && timedOut) {
				t.Errorf("%s: %v", list, err)
			}
		}
	}
	t.Logf("%d/%d stateful results equal the oracle", n-off, n)
	if n == 0 {
		t.Fatal("the campaign scanned no stateful targets")
	}
}

func TestCampaignVersionMismatchIsGoogle(t *testing.T) {
	r := smallCampaign(t)
	googleMismatch, otherMismatch := 0, 0
	for _, res := range r.StatefulNoSNIV4 {
		if res.Outcome != core.OutcomeVersionMismatch {
			continue
		}
		d := r.Universe.ByAddr[res.Target.Addr]
		if d != nil && (d.Provider == "google" || d.Provider == "google-edge") {
			googleMismatch++
		} else {
			otherMismatch++
		}
	}
	if googleMismatch == 0 {
		t.Fatal("no Google version mismatches observed")
	}
	// Paper: 99% of mismatches are Google's.
	if otherMismatch > googleMismatch/4 {
		t.Errorf("mismatches: google=%d other=%d", googleMismatch, otherMismatch)
	}
}

func TestCampaignFigure3RatesGrow(t *testing.T) {
	r := smallCampaign(t)
	if len(r.Weeks) < 2 {
		t.Fatal("need two weeks")
	}
	early, late := r.Weeks[0], r.Weeks[len(r.Weeks)-1]
	rate := func(wd *WeekData) float64 {
		tot, with := 0, 0
		for _, s := range wd.DNS {
			tot += s.Resolved
			with += s.WithRR
		}
		if tot == 0 {
			return 0
		}
		return float64(with) / float64(tot)
	}
	if rate(late) <= rate(early) {
		t.Errorf("HTTPS RR rate should grow: week %d %.3f%% vs week %d %.3f%%",
			early.Week, 100*rate(early), late.Week, 100*rate(late))
	}
}

func TestCampaignFigure5V1Activation(t *testing.T) {
	r := smallCampaign(t)
	week9 := r.Weeks[0]
	week18 := r.Headline()
	hasV1 := func(wd *WeekData) bool {
		for _, versions := range wd.V4.ZMap {
			for _, v := range versions {
				if v.String() == "ietf-01" {
					return true
				}
			}
		}
		return false
	}
	if hasV1(week9) {
		t.Error("ietf-01 advertised at week 9")
	}
	if !hasV1(week18) {
		t.Error("ietf-01 not advertised at week 18")
	}
}

func TestCampaignHTTPSRRBiasTowardCloudflare(t *testing.T) {
	r := smallCampaign(t)
	wd := r.Headline()
	cf, other := 0, 0
	for addr := range wd.V4.HTTPSRR {
		d := r.Universe.ByAddr[addr]
		if d != nil && strings.HasPrefix(d.Provider, "cloudflare") {
			cf++
		} else {
			other++
		}
	}
	if cf == 0 {
		t.Fatal("no cloudflare HTTPS RR hints")
	}
	if other > cf {
		t.Errorf("HTTPS RR hints: cloudflare=%d other=%d (paper: heavily CF-biased)", cf, other)
	}
}

func TestCampaignOverlap(t *testing.T) {
	r := smallCampaign(t)
	o := r.Render("OVERLAP")
	if !strings.Contains(o, "zmap-only") {
		t.Errorf("overlap render:\n%s", o)
	}
	wd := r.Headline()
	if len(wd.V4.ZMap) == 0 || len(wd.V4.AltSvc) == 0 || len(wd.V4.HTTPSRR) == 0 {
		t.Errorf("v4 discovery: zmap=%d alt=%d rr=%d", len(wd.V4.ZMap), len(wd.V4.AltSvc), len(wd.V4.HTTPSRR))
	}
	// Hostinger's IPv6 Alt-Svc-only population must show up.
	if len(wd.V6.AltSvc) == 0 {
		t.Error("no IPv6 Alt-Svc discoveries")
	}
}

func TestCampaignPaddingAblation(t *testing.T) {
	r := smallCampaign(t)
	if r.UnpaddedResponses >= r.PaddedResponses {
		t.Errorf("unpadded %d >= padded %d", r.UnpaddedResponses, r.PaddedResponses)
	}
	if r.UnpaddedResponses == 0 {
		t.Error("unpadded-responder AS missing")
	}
	if r.UnpaddedTopASShare < 0.5 {
		t.Errorf("top AS share of unpadded responses = %.2f (paper: 95.4%%)", r.UnpaddedTopASShare)
	}
}

func TestCampaignTable6EdgePOPs(t *testing.T) {
	r := smallCampaign(t)
	out := r.Render("T6")
	if !strings.Contains(out, "proxygen-bolt") {
		t.Errorf("Table 6 lacks proxygen-bolt:\n%s", out)
	}
}

func TestCampaignFingerprintConfusion(t *testing.T) {
	r := smallCampaign(t)
	cm := r.FingerprintConfusion
	if cm == nil {
		t.Fatal("Options.Fingerprint set but FingerprintConfusion is nil")
	}
	if cm.Total() < 20 {
		t.Fatalf("only %d active deployments fingerprinted", cm.Total())
	}
	if n := cm.Misclassified(); n != 0 {
		t.Errorf("%d deployments misclassified:\n%s", n, cm.Render())
	}
	if acc := cm.Accuracy(); acc < 0.95 {
		t.Errorf("accuracy %.3f below 0.95:\n%s", acc, cm.Render())
	}
	out := r.Render("FINGERPRINT")
	if !strings.Contains(out, "truth \\ verdict") {
		t.Errorf("FINGERPRINT render lacks confusion table:\n%s", out)
	}
	nilRender := (&Report{}).Render("FINGERPRINT")
	if len(nilRender) < 20 {
		t.Errorf("nil-matrix FINGERPRINT render too short: %q", nilRender)
	}
}

func TestCampaignResumptionTable(t *testing.T) {
	r := smallCampaign(t)
	if r.ResumptionTable == nil {
		t.Fatal("Options.Resumption set but ResumptionTable is nil")
	}
	total, correct := 0, 0
	for _, row := range r.ResumptionTable {
		total += row.Targets
		correct += row.Correct()
	}
	if total < 20 {
		t.Fatalf("only %d active deployments probed", total)
	}
	if correct != total {
		t.Errorf("classified %d/%d deployments correctly:\n%s", correct, total, r.RenderResumption())
	}
	out := r.Render("RESUMPTION")
	if !strings.Contains(out, "Token-reuse") {
		t.Errorf("RESUMPTION render lacks token-reuse column:\n%s", out)
	}
	nilRender := (&Report{}).Render("RESUMPTION")
	if len(nilRender) < 20 {
		t.Errorf("nil-table RESUMPTION render too short: %q", nilRender)
	}
}

func TestCampaignAllRenderersNonEmpty(t *testing.T) {
	r := smallCampaign(t)
	for _, id := range ExperimentIDs {
		out := r.Render(id)
		if len(out) < 20 {
			t.Errorf("%s render too short:\n%s", id, out)
		}
	}
	all := r.RenderAll()
	if !strings.Contains(all, "==== T1 ====") || !strings.Contains(all, "==== PADDING ====") {
		t.Error("RenderAll missing sections")
	}
	if r.Render("bogus") == "" {
		t.Error("unknown ID should explain itself")
	}
}

func TestCampaignTable5Shape(t *testing.T) {
	r := smallCampaign(t)
	out := r.Render("T5")
	if !strings.Contains(out, "certificate") {
		t.Fatalf("table 5:\n%s", out)
	}
	t.Log("\n" + out)
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, r := range []*Report{cachedReport, cachedQuick} {
		if r != nil {
			r.Close()
		}
	}
	os.Exit(code)
}

func TestWriteTSV(t *testing.T) {
	r := smallCampaign(t)
	dir := t.TempDir()
	if err := r.WriteTSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.tsv", "table3.tsv", "table4.tsv", "table6.tsv",
		"figure3.tsv", "figure4.tsv", "figure6.tsv", "figure9.tsv", "overlap.tsv"} {
		b, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s has only %d lines", name, len(lines))
		}
		// Header column count matches every row.
		cols := strings.Count(lines[0], "\t")
		for i, l := range lines[1:] {
			if strings.Count(l, "\t") != cols {
				t.Errorf("%s row %d: column count mismatch", name, i+1)
				break
			}
		}
	}
}

func TestStatefulTargetsCap(t *testing.T) {
	wd := &WeekData{V4: analysisNewDiscovery(), V6: analysisNewDiscovery()}
	addr := netipAddr("10.1.2.3")
	wd.V4.ZMap[addr] = compatibleVersions()
	for i := 0; i < 250; i++ {
		wd.V4.DomainsByAddr[addr] = append(wd.V4.DomainsByAddr[addr], "d"+strconvItoa(i)+".test")
	}
	noSNI, sni := statefulTargets(wd, "IPv4")
	if len(noSNI) != 1 {
		t.Errorf("noSNI = %d", len(noSNI))
	}
	if len(sni) != 100 {
		t.Errorf("sni = %d, want the 100-domain ethical cap", len(sni))
	}
	// Incompatible-only targets are filtered.
	wd.V4.ZMap[netipAddr("10.1.2.4")] = googleOnlyVersions()
	noSNI, _ = statefulTargets(wd, "IPv4")
	if len(noSNI) != 1 {
		t.Errorf("incompatible target scanned: noSNI = %d", len(noSNI))
	}
}

// TestDiscoverySocketEconomy: the stateless stages of a scale-2048
// week send tens of thousands of DNS queries, from one socket per
// resolver worker per batch (7 batches x 64) plus the two sweep
// sockets — not one socket per query.
func TestDiscoverySocketEconomy(t *testing.T) {
	u := internet.Build(internet.Spec{Seed: 9, Scale: 2048, Week: 18})
	if err := u.Start(internet.StartOptions{Web: true}); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	before := telemetry.Default().Snapshot().Counters
	if _, err := scanWeek(u, Options{}.withDefaults(), &timeline{t0: time.Now()}, (*simnet.Network).DialUDP); err != nil {
		t.Fatal(err)
	}
	after := telemetry.Default().Snapshot().Counters
	queries := after["dns_queries_total"] - before["dns_queries_total"]
	sockets := after["simnet_udp_sockets_opened_total"] - before["simnet_udp_sockets_opened_total"]
	t.Logf("%d DNS queries, %d UDP sockets opened", queries, sockets)
	if queries < 30000 {
		t.Errorf("only %d DNS queries: the stage under test did not run at scale", queries)
	}
	if sockets >= 1000 {
		t.Errorf("%d UDP sockets opened for %d queries, want < 1000", sockets, queries)
	}
}
