package experiments

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"quicscan/internal/analysis"
	"quicscan/internal/asdb"
	"quicscan/internal/core"
)

// artifacts lists every reproducible artifact in rendering order.
var artifacts = []struct {
	id     string
	render func(*Report) string
}{
	{"T1", (*Report).renderTable1},
	{"T2", (*Report).renderTable2},
	{"T3", (*Report).renderTable3},
	{"T4", (*Report).renderTable4},
	{"T5", (*Report).renderTable5},
	{"T6", (*Report).renderTable6},
	{"T7", (*Report).renderTable7},
	{"F3", (*Report).renderFigure3},
	{"F4", (*Report).renderFigure4},
	{"F5", (*Report).renderFigure5},
	{"F6", (*Report).renderFigure6},
	{"F7", (*Report).renderFigure7},
	{"F8", (*Report).renderFigure8},
	{"F9", (*Report).renderFigure9},
	{"OVERLAP", (*Report).renderOverlap},
	{"PADDING", (*Report).renderPadding},
	{"DIVERSITY", (*Report).renderDiversity},
	{"FINGERPRINT", (*Report).renderFingerprint},
	{"MIGRATION", (*Report).renderMigration},
	{"RESUMPTION", (*Report).renderResumption},
}

// ExperimentIDs lists every artifact's ID in rendering order.
var ExperimentIDs = func() []string {
	ids := make([]string, len(artifacts))
	for i, a := range artifacts {
		ids[i] = a.id
	}
	return ids
}()

// Render produces the text artifact for one experiment ID.
func (r *Report) Render(id string) string {
	for _, a := range artifacts {
		if strings.EqualFold(a.id, id) {
			return a.render(r)
		}
	}
	return fmt.Sprintf("unknown experiment %q (known: %s)\n", id, strings.Join(ExperimentIDs, ", "))
}

// RenderAll produces every artifact.
func (r *Report) RenderAll() string {
	var b strings.Builder
	for _, a := range artifacts {
		fmt.Fprintf(&b, "==== %s ====\n%s\n", a.id, a.render(r))
	}
	return b.String()
}

// renderTable1 is Table 1: found QUIC targets per method.
func (r *Report) renderTable1() string {
	wd := r.Headline()
	db := r.Universe.ASDB
	rows4 := analysis.Table1(wd.V4, db, "IPv4", wd.ZMapProbesV4, wd.TLSTargets, wd.DomainsResolved)
	rows6 := analysis.Table1(wd.V6, db, "IPv6", wd.ZMapProbesV6, wd.TLSTargets, wd.DomainsResolved)
	var rows [][]string
	for _, m := range append(rows4, rows6...) {
		rows = append(rows, []string{
			m.Method, m.Family,
			fmt.Sprint(m.Scanned), fmt.Sprint(m.Addresses), fmt.Sprint(m.ASes), fmt.Sprint(m.Domains),
		})
	}
	return "Table 1: found QUIC targets (headline week)\n" +
		analysis.RenderTable([]string{"Method", "Family", "Scanned", "Addresses", "ASes", "Domains"}, rows)
}

// renderTable2 is Table 2: top-5 providers per source.
func (r *Report) renderTable2() string {
	wd := r.Headline()
	db := r.Universe.ASDB
	var b strings.Builder
	b.WriteString("Table 2: top 5 providers hosting QUIC services\n")
	for _, fam := range []struct {
		label string
		d     *analysis.Discovery
	}{{"IPv4", wd.V4}, {"IPv6", wd.V6}} {
		for _, src := range []string{"ZMap", "HTTPS DNS RR", "ALT-SVC"} {
			var addrs []netip.Addr
			switch src {
			case "ZMap":
				addrs = fam.d.ZMapKeys()
			case "HTTPS DNS RR":
				addrs = fam.d.HTTPSRRKeys()
			case "ALT-SVC":
				addrs = fam.d.AltSvcKeys()
			}
			top := analysis.TopProviders(db, addrs, fam.d.DomainsByAddr, 5)
			fmt.Fprintf(&b, "\n[%s / %s]\n", fam.label, src)
			var rows [][]string
			for i, p := range top {
				rows = append(rows, []string{
					fmt.Sprint(i + 1), p.Name, fmt.Sprintf("AS%d", p.ASN),
					fmt.Sprint(p.Addresses), fmt.Sprint(p.Domains),
				})
			}
			b.WriteString(analysis.RenderTable([]string{"Rank", "Provider", "AS", "#Addr", "#Domains"}, rows))
		}
	}
	return b.String()
}

// renderTable3 is Table 3: stateful scan outcome shares.
func (r *Report) renderTable3() string {
	var b strings.Builder
	b.WriteString("Table 3: stateful scan results of combined sources\n")
	for _, c := range []analysis.OutcomeShares{
		{Label: "IPv4 no-SNI", Summary: core.Summarize(r.StatefulNoSNIV4)},
		{Label: "IPv4 SNI", Summary: core.Summarize(r.StatefulSNIV4)},
		{Label: "IPv6 no-SNI", Summary: core.Summarize(r.StatefulNoSNIV6)},
		{Label: "IPv6 SNI", Summary: core.Summarize(r.StatefulSNIV6)},
	} {
		b.WriteString(c.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// renderTable4 is Table 4: success rate per input source.
func (r *Report) renderTable4() string {
	var b strings.Builder
	b.WriteString("Table 4: individual success rate per input\n")
	for _, fam := range []struct {
		label   string
		results []core.Result
	}{{"IPv4", r.StatefulSNIV4}, {"IPv6", r.StatefulSNIV6}} {
		bySrc := analysis.PerSourceSuccess(fam.results)
		srcs := make([]string, 0, len(bySrc))
		for s := range bySrc {
			srcs = append(srcs, s)
		}
		sort.Strings(srcs)
		for _, s := range srcs {
			sum := bySrc[s]
			fmt.Fprintf(&b, "%-5s %-9s targets %7d  success %6.2f%%\n",
				fam.label, s, sum.Total, sum.Rate(core.OutcomeSuccess))
		}
	}
	return b.String()
}

// renderTable5 is Table 5: share of hosts with equal TLS properties
// over QUIC and TLS-over-TCP.
func (r *Report) renderTable5() string {
	var b strings.Builder
	b.WriteString("Table 5: share of hosts (%) with same TLS properties on TCP and QUIC\n")
	render := func(label string, quic []core.Result) {
		tcp := r.TCPNoSNI
		if strings.Contains(label, "SNI") && !strings.Contains(label, "no") {
			tcp = r.TCPSNI
		}
		cmp := analysis.CompareTLS(quic, tcp)
		fmt.Fprintf(&b, "%-12s certificate %6.1f%%  tls-version %6.1f%%  group %6.1f%%  cipher %6.1f%%  extensions %6.1f%%  (n=%d)\n",
			label, cmp.Certificate, cmp.TLSVersion, cmp.KeyExchangeGroup, cmp.Cipher, cmp.Extensions, cmp.Compared)
	}
	render("IPv4 no-SNI", r.StatefulNoSNIV4)
	render("IPv4 SNI", r.StatefulSNIV4)
	render("IPv6 no-SNI", r.StatefulNoSNIV6)
	render("IPv6 SNI", r.StatefulSNIV6)
	return b.String()
}

// renderTable6 is Table 6: top HTTP Server values.
func (r *Report) renderTable6() string {
	all := append(append([]core.Result{}, r.StatefulSNIV4...), r.StatefulNoSNIV4...)
	all = append(all, r.StatefulSNIV6...)
	top := analysis.TopServerValues(all, r.Universe.ASDB, 8)
	var rows [][]string
	for _, s := range top {
		rows = append(rows, []string{s.Server, fmt.Sprint(s.ASes), fmt.Sprint(s.Targets), fmt.Sprint(s.TPConfigs)})
	}
	return "Table 6: top HTTP Server values by #ASes\n" +
		analysis.RenderTable([]string{"Server", "#ASes", "#Targets", "#TPConfigs"}, rows)
}

// renderTable7 is Table 7: AS number to name mapping.
func (r *Report) renderTable7() string {
	asns := []asdb.ASN{
		asdb.ASGTSTelecom, asdb.ASIonos, asdb.ASCloudflare, asdb.ASDigitalOcean,
		asdb.ASGoogle, asdb.ASOVH, asdb.ASAmazon, asdb.ASAkamai,
		asdb.ASSynergyWholesale, asdb.ASHostinger, asdb.ASFastly, asdb.ASA2Hosting,
		asdb.ASJio, asdb.ASPrivateSystems, asdb.ASLinode, asdb.ASCloudflareLondon,
		asdb.ASEuroByte,
	}
	var rows [][]string
	for _, a := range asns {
		rows = append(rows, []string{fmt.Sprintf("AS%d", a), asdb.Name(a)})
	}
	return "Table 7: important ASes and according names\n" +
		analysis.RenderTable([]string{"AS", "Name"}, rows)
}

// renderFigure3 is the weekly HTTPS-RR success rate per source.
func (r *Report) renderFigure3() string {
	var b strings.Builder
	b.WriteString("Figure 3: HTTPS DNS RR success rate per source over calendar weeks (%)\n")
	sources := map[string]bool{}
	for _, wd := range r.Weeks {
		for _, s := range wd.DNS {
			sources[s.Source] = true
		}
	}
	srcs := make([]string, 0, len(sources))
	for s := range sources {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	header := []string{"Source"}
	for _, wd := range r.Weeks {
		header = append(header, fmt.Sprintf("W%d", wd.Week))
	}
	var rows [][]string
	for _, src := range srcs {
		row := []string{src}
		for _, wd := range r.Weeks {
			rate := 0.0
			for _, s := range wd.DNS {
				if s.Source == src {
					rate = s.rate()
				}
			}
			row = append(row, fmt.Sprintf("%.2f", rate))
		}
		rows = append(rows, row)
	}
	b.WriteString(analysis.RenderTable(header, rows))
	return b.String()
}

// renderFigure4 is the AS-rank CDF per discovery method.
func (r *Report) renderFigure4() string {
	wd := r.Headline()
	db := r.Universe.ASDB
	var b strings.Builder
	b.WriteString("Figure 4: AS distribution of addresses indicating QUIC support (CDF over AS rank)\n")
	for _, c := range []struct {
		label string
		addrs []netip.Addr
	}{
		{"[IPv4] ZMap", wd.V4.ZMapKeys()},
		{"[IPv4] ZMap+DNS", withDomains(wd.V4)},
		{"[IPv4] ALT", wd.V4.AltSvcKeys()},
		{"[IPv4] SVCB", wd.V4.HTTPSRRKeys()},
		{"[IPv6] ZMap", wd.V6.ZMapKeys()},
		{"[IPv6] ZMap+DNS", withDomains(wd.V6)},
		{"[IPv6] ALT", wd.V6.AltSvcKeys()},
		{"[IPv6] SVCB", wd.V6.HTTPSRRKeys()},
	} {
		cdf := analysis.ComputeASRankCDF(db, c.addrs)
		fmt.Fprintf(&b, "%-18s top1 %5.1f%%  top4 %5.1f%%  top10 %5.1f%%  rank(80%%)=%d  ASes=%d\n",
			c.label, 100*cdf.ShareAt(1), 100*cdf.ShareAt(4), 100*cdf.ShareAt(10),
			cdf.RankFor(0.8), len(cdf.Shares))
	}
	return b.String()
}

// renderFigure5 is the version-set distribution over weeks.
func (r *Report) renderFigure5() string {
	var b strings.Builder
	b.WriteString("Figure 5: supported QUIC version sets per IPv4 address from ZMap scans (%)\n")
	for _, wd := range r.Weeks {
		fmt.Fprintf(&b, "\ncalendar week %d (addresses: %d)\n", wd.Week, len(wd.V4.ZMap))
		for _, s := range analysis.VersionSetShares(wd.V4.ZMap, 0.01) {
			fmt.Fprintf(&b, "  %6.2f%%  %s\n", 100*s.Share, s.Set)
		}
	}
	return b.String()
}

// renderFigure6 is the individual-version support over weeks.
func (r *Report) renderFigure6() string {
	var b strings.Builder
	b.WriteString("Figure 6: supported individual QUIC versions from ZMap scans (% of addresses)\n")
	versions := map[string]bool{}
	for _, wd := range r.Weeks {
		for v := range analysis.IndividualVersionShares(wd.V4.ZMap) {
			versions[v] = true
		}
	}
	names := make([]string, 0, len(versions))
	for v := range versions {
		names = append(names, v)
	}
	sort.Strings(names)
	header := []string{"Version"}
	for _, wd := range r.Weeks {
		header = append(header, fmt.Sprintf("W%d", wd.Week))
	}
	var rows [][]string
	for _, name := range names {
		row := []string{name}
		for _, wd := range r.Weeks {
			share := analysis.IndividualVersionShares(wd.V4.ZMap)[name]
			row = append(row, fmt.Sprintf("%.1f", 100*share))
		}
		rows = append(rows, row)
	}
	b.WriteString(analysis.RenderTable(header, rows))
	return b.String()
}

// renderFigure7 is the ALPN-set distribution over weeks.
func (r *Report) renderFigure7() string {
	var b strings.Builder
	b.WriteString("Figure 7: QUIC-related ALPN sets for (domain, address) targets from TLS scans (%)\n")
	for _, wd := range r.Weeks {
		fmt.Fprintf(&b, "\ncalendar week %d\n", wd.Week)
		for _, s := range analysis.ALPNSetShares(wd.V4.AltSvc, wd.V4.DomainsByAddr, 0.01) {
			fmt.Fprintf(&b, "  %6.2f%%  %s\n", 100*s.Share, s.Set)
		}
	}
	return b.String()
}

// renderFigure8 is the AS-rank CDF of successfully scanned targets.
func (r *Report) renderFigure8() string {
	db := r.Universe.ASDB
	var b strings.Builder
	b.WriteString("Figure 8: AS distribution of successfully scanned targets (CDF over AS rank)\n")
	for _, c := range []struct {
		label   string
		results []core.Result
	}{
		{"[IPv4] no SNI", r.StatefulNoSNIV4},
		{"[IPv4] SNI", r.StatefulSNIV4},
		{"[IPv6] no SNI", r.StatefulNoSNIV6},
		{"[IPv6] SNI", r.StatefulSNIV6},
	} {
		addrs := analysis.SuccessfulAddrs(c.results)
		cdf := analysis.ComputeASRankCDF(db, addrs)
		fmt.Fprintf(&b, "%-15s addrs %6d  top1 %5.1f%%  top10 %5.1f%%  rank(80%%)=%d  ASes=%d\n",
			c.label, len(addrs), 100*cdf.ShareAt(1), 100*cdf.ShareAt(10), cdf.RankFor(0.8), len(cdf.Shares))
	}
	return b.String()
}

// renderFigure9 is the transport parameter configuration distribution.
func (r *Report) renderFigure9() string {
	all := append(append([]core.Result{}, r.StatefulSNIV4...), r.StatefulNoSNIV4...)
	all = append(all, r.StatefulSNIV6...)
	all = append(all, r.StatefulNoSNIV6...)
	dist := analysis.TPConfigDistribution(all, r.Universe.ASDB)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: distribution of %d transport parameter configurations (ranked by targets)\n", len(dist))
	for i, c := range dist {
		fp := c.Fingerprint
		if len(fp) > 96 {
			fp = fp[:93] + "..."
		}
		fmt.Fprintf(&b, "%3d  targets %7d  ASes %5d  %s\n", i, c.Targets, c.ASes, fp)
	}
	return b.String()
}

// renderOverlap reports the per-source unique and shared addresses.
func (r *Report) renderOverlap() string {
	wd := r.Headline()
	var b strings.Builder
	b.WriteString("Overlap between discovery sources\n")
	for _, fam := range []struct {
		label string
		d     *analysis.Discovery
	}{{"IPv4", wd.V4}, {"IPv6", wd.V6}} {
		o := analysis.ComputeOverlap(fam.d)
		fmt.Fprintf(&b, "%s  total %d  zmap-only %d  alt-only %d  https-only %d  shared %d\n",
			fam.label, o.Total, o.ZMapOnly, o.AltOnly, o.RROnly, o.Shared)
	}
	return b.String()
}

// renderPadding reports the Section 3.1 padding ablation.
func (r *Report) renderPadding() string {
	rate := 0.0
	if r.PaddedResponses > 0 {
		rate = 100 * float64(r.UnpaddedResponses) / float64(r.PaddedResponses)
	}
	return fmt.Sprintf("Padding ablation (Section 3.1)\n"+
		"padded probe responses:   %d\n"+
		"unpadded probe responses: %d (%.1f%% of padded)\n"+
		"top AS share of unpadded responses: %.1f%%\n",
		r.PaddedResponses, r.UnpaddedResponses, rate, 100*r.UnpaddedTopASShare)
}

// withDomains filters ZMap-found addresses to those a domain resolves
// to, the "ZMap+DNS" series of Figure 4.
func withDomains(d *analysis.Discovery) []netip.Addr {
	var out []netip.Addr
	for addr := range d.ZMap {
		if len(d.DomainsByAddr[addr]) > 0 {
			out = append(out, addr)
		}
	}
	return out
}

// renderDiversity reports configuration diversity within single ASes
// (Section 5.2): how many distinct transport parameter configurations
// each AS exposes, led by cloud providers hosting customer setups.
func (r *Report) renderDiversity() string {
	all := append(append([]core.Result{}, r.StatefulSNIV4...), r.StatefulNoSNIV4...)
	all = append(all, r.StatefulSNIV6...)
	all = append(all, r.StatefulNoSNIV6...)
	perAS := analysis.ConfigsPerAS(all, r.Universe.ASDB)

	type row struct {
		asn     asdb.ASN
		configs int
	}
	rows := make([]row, 0, len(perAS))
	single := 0
	for asn, n := range perAS {
		rows = append(rows, row{asn, n})
		if n == 1 {
			single++
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].configs != rows[j].configs {
			return rows[i].configs > rows[j].configs
		}
		return rows[i].asn < rows[j].asn
	})
	var b strings.Builder
	fmt.Fprintf(&b, "Configuration diversity within single ASes (Section 5.2)\n")
	fmt.Fprintf(&b, "ASes with successful scans: %d, of which %d (%.0f%%) expose a single configuration\n",
		len(rows), single, 100*float64(single)/float64(max(1, len(rows))))
	limit := 8
	if len(rows) < limit {
		limit = len(rows)
	}
	for _, rw := range rows[:limit] {
		fmt.Fprintf(&b, "  %-32s %2d configurations\n", asdb.Name(rw.asn), rw.configs)
	}
	return b.String()
}
