package analysis

import (
	"net/netip"
	"strings"
	"testing"

	"quicscan/internal/asdb"
	"quicscan/internal/core"
	"quicscan/internal/quicwire"
	"quicscan/internal/tlsscan"
)

func a4(b byte) netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, b}) }

func testDB() *asdb.DB {
	db := asdb.New()
	db.Add(netip.MustParsePrefix("10.0.0.0/28"), 13335) // addrs 0-15
	db.Add(netip.MustParsePrefix("10.0.0.16/28"), 15169)
	db.Add(netip.MustParsePrefix("10.0.0.32/28"), 60001)
	return db
}

func TestTable1AndOverlap(t *testing.T) {
	d := NewDiscovery()
	db := testDB()
	v29 := []quicwire.Version{quicwire.VersionDraft29}
	for i := byte(1); i <= 8; i++ {
		d.ZMap[a4(i)] = v29
	}
	d.AltSvc[a4(8)] = []string{"h3-29"} // overlap with ZMap
	d.AltSvc[a4(33)] = []string{"h3"}   // alt-only
	d.HTTPSRR[a4(1)] = true             // overlap
	d.HTTPSRR[a4(34)] = true            // rr-only
	d.DomainsByAddr[a4(1)] = []string{"x.test", "y.test"}
	d.HTTPSRRDomains["x.test"] = true
	d.AltSvcDomains["z.test"] = true

	rows := Table1(d, db, "IPv4", 100, 50, 20)
	if rows[0].Addresses != 8 || rows[0].Domains != 2 {
		t.Errorf("zmap row = %+v", rows[0])
	}
	if rows[0].ASes != 1 {
		t.Errorf("zmap ASes = %d", rows[0].ASes)
	}
	if rows[1].Addresses != 2 || rows[1].Domains != 1 {
		t.Errorf("alt row = %+v", rows[1])
	}
	if rows[2].Addresses != 2 || rows[2].Domains != 1 {
		t.Errorf("https row = %+v", rows[2])
	}

	o := ComputeOverlap(d)
	if o.ZMapOnly != 6 || o.AltOnly != 1 || o.RROnly != 1 || o.Shared != 2 || o.Total != 10 {
		t.Errorf("overlap = %+v", o)
	}
}

func TestTopProviders(t *testing.T) {
	db := testDB()
	var addrs []netip.Addr
	for i := byte(1); i <= 5; i++ {
		addrs = append(addrs, a4(i)) // AS13335
	}
	addrs = append(addrs, a4(17), a4(18)) // AS15169
	addrs = append(addrs, a4(33))         // AS60001
	doms := map[netip.Addr][]string{a4(1): {"a", "b"}}

	top := TopProviders(db, addrs, doms, 2)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].ASN != 13335 || top[0].Addresses != 5 || top[0].Domains != 2 {
		t.Errorf("rank 1 = %+v", top[0])
	}
	if top[0].Name != "Cloudflare, Inc." {
		t.Errorf("name = %q", top[0].Name)
	}
	if top[1].ASN != 15169 || top[1].Addresses != 2 {
		t.Errorf("rank 2 = %+v", top[1])
	}
}

func TestASRankCDF(t *testing.T) {
	db := testDB()
	var addrs []netip.Addr
	// 6 in AS13335, 3 in AS15169, 1 in AS60001.
	for i := byte(1); i <= 6; i++ {
		addrs = append(addrs, a4(i))
	}
	addrs = append(addrs, a4(17), a4(18), a4(19), a4(33))
	cdf := ComputeASRankCDF(db, addrs)
	if len(cdf.Shares) != 3 {
		t.Fatalf("shares = %v", cdf.Shares)
	}
	if cdf.ShareAt(1) != 0.6 {
		t.Errorf("top1 = %f", cdf.ShareAt(1))
	}
	if cdf.ShareAt(2) != 0.9 {
		t.Errorf("top2 = %f", cdf.ShareAt(2))
	}
	if cdf.ShareAt(3) != 1.0 || cdf.ShareAt(100) != 1.0 {
		t.Errorf("top3 = %f", cdf.ShareAt(3))
	}
	if cdf.RankFor(0.8) != 2 || cdf.RankFor(0.5) != 1 {
		t.Errorf("RankFor: %d %d", cdf.RankFor(0.8), cdf.RankFor(0.5))
	}
}

func TestVersionSetShares(t *testing.T) {
	zmap := map[netip.Addr][]quicwire.Version{}
	setA := []quicwire.Version{quicwire.VersionDraft29, quicwire.VersionDraft28, quicwire.VersionDraft27}
	setB := []quicwire.Version{quicwire.VersionGoogleQ050, quicwire.VersionGoogleQ046}
	for i := byte(1); i <= 7; i++ {
		zmap[a4(i)] = setA
	}
	for i := byte(20); i <= 22; i++ {
		zmap[a4(i)] = setB
	}
	zmap[a4(40)] = []quicwire.Version{quicwire.VersionDraft29} // rare

	shares := VersionSetShares(zmap, 0.15)
	if len(shares) != 3 { // setA, setB, Other
		t.Fatalf("shares = %+v", shares)
	}
	if shares[0].Set != "draft-29 draft-28 draft-27" || shares[0].Count != 7 {
		t.Errorf("top set = %+v", shares[0])
	}
	if shares[2].Set != "Other" || shares[2].Count != 1 {
		t.Errorf("other = %+v", shares[2])
	}

	indiv := IndividualVersionShares(zmap)
	if got := indiv["draft-29"]; got < 0.72 || got > 0.73 {
		t.Errorf("draft-29 share = %f", got) // 8 of 11
	}
	if got := indiv["Q050"]; got < 0.27 || got > 0.28 {
		t.Errorf("Q050 share = %f", got) // 3 of 11
	}
}

func TestALPNSetShares(t *testing.T) {
	alt := map[netip.Addr][]string{
		a4(1): {"h3-27", "h3-28", "h3-29"},
		a4(2): {"h3-27", "h3-28", "h3-29"},
		a4(3): {"quic"},
	}
	doms := map[netip.Addr][]string{
		a4(1): {"a", "b", "c"}, // weight 3
		a4(2): {"d"},
	}
	shares := ALPNSetShares(alt, doms, 0)
	if shares[0].Set != "h3-27,h3-28,h3-29" || shares[0].Count != 4 {
		t.Errorf("top = %+v", shares[0])
	}
	if shares[1].Set != "quic" || shares[1].Count != 1 {
		t.Errorf("second = %+v", shares[1])
	}
}

func mkResult(addr netip.Addr, sni string, outcome core.Outcome, fp, server string) core.Result {
	r := core.Result{
		Target:  core.Target{Addr: addr, SNI: sni},
		Outcome: outcome,
	}
	if outcome == core.OutcomeSuccess {
		r.TPFingerprint = fp
		r.HTTP = &core.HTTPInfo{RequestOK: true, Server: server}
		r.TLS = &core.TLSInfo{Version: 0x0304, CipherSuite: 0x1301, KeyExchangeGroup: "X25519",
			CertFingerprint: "cert-" + addr.String(), Extensions: core.ExtensionSet(true, sni != "")}
	}
	return r
}

func TestPerSourceSuccessAndFigure8(t *testing.T) {
	results := []core.Result{
		mkResult(a4(1), "a", core.OutcomeSuccess, "fp1", "cloudflare"),
		mkResult(a4(2), "b", core.OutcomeTimeout, "", ""),
		mkResult(a4(1), "c", core.OutcomeSuccess, "fp1", "cloudflare"),
	}
	results[0].Target.Source = "zmap"
	results[1].Target.Source = "zmap"
	results[2].Target.Source = "https-rr"

	bySrc := PerSourceSuccess(results)
	if bySrc["zmap"].Success != 1 || bySrc["zmap"].Total != 2 {
		t.Errorf("zmap = %+v", bySrc["zmap"])
	}
	if bySrc["https-rr"].Success != 1 {
		t.Errorf("https-rr = %+v", bySrc["https-rr"])
	}

	addrs := SuccessfulAddrs(results)
	if len(addrs) != 1 || addrs[0] != a4(1) {
		t.Errorf("successful addrs = %v", addrs)
	}
}

func TestCompareTLS(t *testing.T) {
	q := []core.Result{
		mkResult(a4(1), "a", core.OutcomeSuccess, "fp", "s"),
		mkResult(a4(2), "b", core.OutcomeSuccess, "fp", "s"),
		mkResult(a4(3), "c", core.OutcomeSuccess, "fp", "s"),
	}
	tcp := []tlsscan.Result{
		{Target: tlsscan.Target{Addr: a4(1), SNI: "a"}, OK: true,
			TLS: &core.TLSInfo{Version: 0x0304, CipherSuite: 0x1301, KeyExchangeGroup: "X25519",
				CertFingerprint: "cert-" + a4(1).String(), Extensions: core.ExtensionSet(true, true)}},
		// Different certificate and TLS 1.2.
		{Target: tlsscan.Target{Addr: a4(2), SNI: "b"}, OK: true,
			TLS: &core.TLSInfo{Version: 0x0303, CipherSuite: 0xc02f, KeyExchangeGroup: "pre-TLS1.3",
				CertFingerprint: "othercert", Extensions: core.ExtensionSet(true, true)}},
		// a4(3) missing from TCP scan: not compared.
	}
	cmp := CompareTLS(q, tcp)
	if cmp.Compared != 2 {
		t.Fatalf("compared = %d", cmp.Compared)
	}
	if cmp.Certificate != 50 || cmp.TLSVersion != 50 {
		t.Errorf("cert=%f version=%f", cmp.Certificate, cmp.TLSVersion)
	}
	if cmp.TLS13Count != 1 || cmp.Cipher != 100 || cmp.Extensions != 100 {
		t.Errorf("cmp = %+v", cmp)
	}
}

func TestTopServerValuesAndTPConfigs(t *testing.T) {
	db := testDB()
	results := []core.Result{
		mkResult(a4(1), "a", core.OutcomeSuccess, "cfgA", "proxygen-bolt"),
		mkResult(a4(17), "b", core.OutcomeSuccess, "cfgB", "proxygen-bolt"),
		mkResult(a4(33), "c", core.OutcomeSuccess, "cfgA", "nginx"),
		mkResult(a4(2), "d", core.OutcomeTimeout, "", ""),
	}
	top := TopServerValues(results, db, 5)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Server != "proxygen-bolt" || top[0].ASes != 2 || top[0].Targets != 2 || top[0].TPConfigs != 2 {
		t.Errorf("row 0 = %+v", top[0])
	}

	dist := TPConfigDistribution(results, db)
	if len(dist) != 2 || dist[0].Fingerprint != "cfgA" || dist[0].Targets != 2 || dist[0].ASes != 2 {
		t.Errorf("dist = %+v", dist)
	}

	per := ConfigsPerAS(results, db)
	if per[13335] != 1 || per[60001] != 1 {
		t.Errorf("per-AS = %v", per)
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable([]string{"A", "BBB"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(out, "A    BBB") && !strings.Contains(out, "A") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("lines = %d", len(lines))
	}
}
