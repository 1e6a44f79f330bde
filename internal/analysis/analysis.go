// Package analysis turns raw scan results into the paper's tables and
// figures: per-method discovery counts and overlaps (Table 1,
// Section 4), provider rankings (Table 2), AS-rank CDFs (Figures 4
// and 8), version and ALPN set distributions (Figures 5-7), stateful
// outcome shares (Tables 3-4), the QUIC-vs-TCP TLS comparison
// (Table 5), HTTP Server value statistics (Table 6) and the transport
// parameter configuration ranking (Figure 9).
package analysis

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"quicscan/internal/asdb"
	"quicscan/internal/quicwire"
)

// Discovery aggregates what one discovery method found for one
// address family.
type Discovery struct {
	// ZMap: responding address -> advertised versions.
	ZMap map[netip.Addr][]quicwire.Version
	// AltSvc: address -> H3-indicating ALPN set from its Alt-Svc
	// header.
	AltSvc map[netip.Addr][]string
	// HTTPSRR: addresses appearing in HTTPS RR hints.
	HTTPSRR map[netip.Addr]bool
	// DomainsByAddr joins DNS A/AAAA resolutions: address -> domains.
	DomainsByAddr map[netip.Addr][]string
	// HTTPSRRDomains: domains with a service-mode HTTPS RR.
	HTTPSRRDomains map[string]bool
	// AltSvcDomains: domains served from Alt-Svc-advertising targets.
	AltSvcDomains map[string]bool
}

// ZMapKeys returns the ZMap-found addresses.
func (d *Discovery) ZMapKeys() []netip.Addr { return keys(d.ZMap) }

// AltSvcKeys returns the Alt-Svc-found addresses.
func (d *Discovery) AltSvcKeys() []netip.Addr { return keys(d.AltSvc) }

// HTTPSRRKeys returns the HTTPS-RR-hinted addresses.
func (d *Discovery) HTTPSRRKeys() []netip.Addr { return keys(d.HTTPSRR) }

// NewDiscovery allocates all maps.
func NewDiscovery() *Discovery {
	return &Discovery{
		ZMap:           make(map[netip.Addr][]quicwire.Version),
		AltSvc:         make(map[netip.Addr][]string),
		HTTPSRR:        make(map[netip.Addr]bool),
		DomainsByAddr:  make(map[netip.Addr][]string),
		HTTPSRRDomains: make(map[string]bool),
		AltSvcDomains:  make(map[string]bool),
	}
}

// MethodStats is one row of Table 1.
type MethodStats struct {
	Method    string
	Family    string
	Scanned   int
	Addresses int
	ASes      int
	Domains   int
}

// asCount tallies distinct ASes over a set of addresses.
func asCount(db *asdb.DB, addrs []netip.Addr) int {
	seen := make(map[asdb.ASN]bool)
	for _, a := range addrs {
		if asn, ok := db.Lookup(a); ok {
			seen[asn] = true
		}
	}
	return len(seen)
}

func keys[V any](m map[netip.Addr]V) []netip.Addr {
	out := make([]netip.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	return out
}

// Table1 computes the per-method discovery statistics. scannedZMap is
// the number of probed targets; scannedDomains the resolved list size.
func Table1(d *Discovery, db *asdb.DB, family string, scannedZMap, scannedTLS, scannedDomains int) []MethodStats {
	zmapAddrs := keys(d.ZMap)
	zmapDomains := 0
	for _, a := range zmapAddrs {
		zmapDomains += len(d.DomainsByAddr[a])
	}
	altAddrs := keys(d.AltSvc)
	altDomains := len(d.AltSvcDomains)
	rrAddrs := keys(d.HTTPSRR)
	rrDomains := len(d.HTTPSRRDomains)

	return []MethodStats{
		{Method: "ZMap", Family: family, Scanned: scannedZMap, Addresses: len(zmapAddrs), ASes: asCount(db, zmapAddrs), Domains: zmapDomains},
		{Method: "ALT-SVC", Family: family, Scanned: scannedTLS, Addresses: len(altAddrs), ASes: asCount(db, altAddrs), Domains: altDomains},
		{Method: "HTTPS", Family: family, Scanned: scannedDomains, Addresses: len(rrAddrs), ASes: asCount(db, rrAddrs), Domains: rrDomains},
	}
}

// Overlap reports per-method unique and shared address counts
// (Section 4, "Overlap between sources").
type Overlap struct {
	ZMapOnly, AltOnly, RROnly int
	Shared                    int // in at least two sources
	Total                     int
}

// ComputeOverlap derives the overlap statistics.
func ComputeOverlap(d *Discovery) Overlap {
	all := make(map[netip.Addr]int)
	for a := range d.ZMap {
		all[a] |= 1
	}
	for a := range d.AltSvc {
		all[a] |= 2
	}
	for a := range d.HTTPSRR {
		all[a] |= 4
	}
	var o Overlap
	o.Total = len(all)
	for _, bits := range all {
		switch bits {
		case 1:
			o.ZMapOnly++
		case 2:
			o.AltOnly++
		case 4:
			o.RROnly++
		default:
			o.Shared++
		}
	}
	return o
}

// ProviderRank is one row of Table 2.
type ProviderRank struct {
	ASN       asdb.ASN
	Name      string
	Addresses int
	Domains   int
}

// TopProviders ranks ASes by address count for one source, with
// joined domain counts — Table 2.
func TopProviders(db *asdb.DB, addrs []netip.Addr, domainsByAddr map[netip.Addr][]string, k int) []ProviderRank {
	addrCount := make(map[asdb.ASN]int)
	domCount := make(map[asdb.ASN]int)
	for _, a := range addrs {
		asn, ok := db.Lookup(a)
		if !ok {
			continue
		}
		addrCount[asn]++
		domCount[asn] += len(domainsByAddr[a])
	}
	out := make([]ProviderRank, 0, len(addrCount))
	for asn, n := range addrCount {
		out = append(out, ProviderRank{ASN: asn, Name: asdb.Name(asn), Addresses: n, Domains: domCount[asn]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addresses != out[j].Addresses {
			return out[i].Addresses > out[j].Addresses
		}
		return out[i].ASN < out[j].ASN
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// ASRankCDF computes the cumulative address share over AS rank
// (Figures 4 and 8). The result maps rank (1-based) to cumulative
// fraction.
type ASRankCDF struct {
	Shares []float64 // Shares[i] = cumulative share of top i+1 ASes
}

// ComputeASRankCDF builds the CDF for a set of addresses.
func ComputeASRankCDF(db *asdb.DB, addrs []netip.Addr) ASRankCDF {
	count := make(map[asdb.ASN]int)
	total := 0
	for _, a := range addrs {
		if asn, ok := db.Lookup(a); ok {
			count[asn]++
			total++
		}
	}
	sizes := make([]int, 0, len(count))
	for _, n := range count {
		sizes = append(sizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	cdf := ASRankCDF{Shares: make([]float64, len(sizes))}
	cum := 0
	for i, n := range sizes {
		cum += n
		if total > 0 {
			cdf.Shares[i] = float64(cum) / float64(total)
		}
	}
	return cdf
}

// ShareAt returns the cumulative share covered by the top k ASes.
func (c ASRankCDF) ShareAt(k int) float64 {
	if len(c.Shares) == 0 {
		return 0
	}
	if k > len(c.Shares) {
		k = len(c.Shares)
	}
	if k < 1 {
		k = 1
	}
	return c.Shares[k-1]
}

// RankFor returns the smallest rank whose cumulative share reaches
// the given fraction (e.g. 0.8 for "80% coverage").
func (c ASRankCDF) RankFor(share float64) int {
	for i, s := range c.Shares {
		if s >= share {
			return i + 1
		}
	}
	return len(c.Shares)
}

// SetShare is a ranked share of some set-valued attribute (version
// sets in Figure 5, ALPN sets in Figure 7, individual versions in
// Figure 6).
type SetShare struct {
	Set   string
	Count int
	Share float64
}

// versionSetKey canonicalizes a version list the way the paper labels
// Figure 5 (order as advertised).
func versionSetKey(versions []quicwire.Version) string {
	parts := make([]string, len(versions))
	for i, v := range versions {
		parts[i] = v.String()
	}
	return strings.Join(parts, " ")
}

// rankSets tallies arbitrary set keys into ranked shares, folding
// everything below minShare into "Other".
func rankSets(counts map[string]int, minShare float64) []SetShare {
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return nil
	}
	var out []SetShare
	other := 0
	for set, n := range counts {
		share := float64(n) / float64(total)
		if share < minShare {
			other += n
			continue
		}
		out = append(out, SetShare{Set: set, Count: n, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Set < out[j].Set
	})
	if other > 0 {
		out = append(out, SetShare{Set: "Other", Count: other, Share: float64(other) / float64(total)})
	}
	return out
}

// VersionSetShares computes Figure 5 for one week's ZMap results.
func VersionSetShares(zmap map[netip.Addr][]quicwire.Version, minShare float64) []SetShare {
	counts := make(map[string]int)
	for _, versions := range zmap {
		counts[versionSetKey(versions)]++
	}
	return rankSets(counts, minShare)
}

// IndividualVersionShares computes Figure 6: the share of responding
// addresses supporting each individual version.
func IndividualVersionShares(zmap map[netip.Addr][]quicwire.Version) map[string]float64 {
	total := len(zmap)
	if total == 0 {
		return nil
	}
	counts := make(map[string]int)
	for _, versions := range zmap {
		seen := make(map[string]bool)
		for _, v := range versions {
			name := v.String()
			if !seen[name] {
				seen[name] = true
				counts[name]++
			}
		}
	}
	out := make(map[string]float64, len(counts))
	for name, n := range counts {
		out[name] = float64(n) / float64(total)
	}
	return out
}

// ALPNSetShares computes Figure 7 from Alt-Svc ALPN sets, counted per
// (domain, address) target as in the paper.
func ALPNSetShares(altSvc map[netip.Addr][]string, domainsByAddr map[netip.Addr][]string, minShare float64) []SetShare {
	counts := make(map[string]int)
	for addr, alpns := range altSvc {
		key := strings.Join(alpns, ",")
		weight := len(domainsByAddr[addr])
		if weight == 0 {
			weight = 1
		}
		counts[key] += weight
	}
	return rankSets(counts, minShare)
}

// RenderTable formats rows of labelled integer columns as an aligned
// text table.
func RenderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
