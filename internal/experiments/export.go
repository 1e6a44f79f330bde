package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"quicscan/internal/analysis"
	"quicscan/internal/core"
)

// WriteTSV exports the campaign's datasets as tab-separated files in
// dir, one per artifact — the machine-readable companion to the text
// report, mirroring the analysis results the paper publishes.
//
// Files written: table1.tsv, table3.tsv, table4.tsv, table6.tsv,
// figure3.tsv, figure4.tsv, figure6.tsv, figure9.tsv, overlap.tsv.
func (r *Report) WriteTSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writers := map[string]func(io.Writer) error{
		"table1.tsv":  r.writeTable1TSV,
		"table3.tsv":  r.writeTable3TSV,
		"table4.tsv":  r.writeTable4TSV,
		"table6.tsv":  r.writeTable6TSV,
		"figure3.tsv": r.writeFigure3TSV,
		"figure4.tsv": r.writeFigure4TSV,
		"figure6.tsv": r.writeFigure6TSV,
		"figure9.tsv": r.writeFigure9TSV,
		"overlap.tsv": r.writeOverlapTSV,
	}
	for name, fn := range writers {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("experiments: writing %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (r *Report) writeTable1TSV(w io.Writer) error {
	wd := r.Headline()
	db := r.Universe.ASDB
	fmt.Fprintln(w, "method\tfamily\tscanned\taddresses\tases\tdomains")
	rows := analysis.Table1(wd.V4, db, "IPv4", wd.ZMapProbesV4, wd.TLSTargets, wd.DomainsResolved)
	rows = append(rows, analysis.Table1(wd.V6, db, "IPv6", wd.ZMapProbesV6, wd.TLSTargets, wd.DomainsResolved)...)
	for _, m := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\n", m.Method, m.Family, m.Scanned, m.Addresses, m.ASes, m.Domains)
	}
	return nil
}

func (r *Report) writeTable3TSV(w io.Writer) error {
	fmt.Fprintln(w, "scan\ttotal\tsuccess_pct\ttimeout_pct\tcrypto0x128_pct\tversion_mismatch_pct\tother_pct")
	for _, c := range []struct {
		label   string
		results []core.Result
	}{
		{"ipv4_no_sni", r.StatefulNoSNIV4},
		{"ipv4_sni", r.StatefulSNIV4},
		{"ipv6_no_sni", r.StatefulNoSNIV6},
		{"ipv6_sni", r.StatefulSNIV6},
	} {
		s := core.Summarize(c.results)
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n", c.label, s.Total,
			s.Rate(core.OutcomeSuccess), s.Rate(core.OutcomeTimeout), s.Rate(core.OutcomeCryptoError),
			s.Rate(core.OutcomeVersionMismatch), s.Rate(core.OutcomeOther))
	}
	return nil
}

func (r *Report) writeTable4TSV(w io.Writer) error {
	fmt.Fprintln(w, "family\tsource\ttargets\tsuccess_pct")
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
		for _, src := range srcs {
			s := bySrc[src]
			fmt.Fprintf(w, "%s\t%s\t%d\t%.2f\n", fam.label, src, s.Total, s.Rate(core.OutcomeSuccess))
		}
	}
	return nil
}

func (r *Report) writeTable6TSV(w io.Writer) error {
	all := append(append([]core.Result{}, r.StatefulSNIV4...), r.StatefulNoSNIV4...)
	all = append(all, r.StatefulSNIV6...)
	fmt.Fprintln(w, "server\tases\ttargets\ttp_configs")
	for _, s := range analysis.TopServerValues(all, r.Universe.ASDB, 32) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", s.Server, s.ASes, s.Targets, s.TPConfigs)
	}
	return nil
}

func (r *Report) writeFigure3TSV(w io.Writer) error {
	fmt.Fprintln(w, "week\tsource\tresolved\twith_rr\trate_pct")
	for _, wd := range r.Weeks {
		for _, s := range wd.DNS {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%.3f\n", wd.Week, s.Source, s.Resolved, s.WithRR, s.rate())
		}
	}
	return nil
}

func (r *Report) writeFigure4TSV(w io.Writer) error {
	wd := r.Headline()
	db := r.Universe.ASDB
	fmt.Fprintln(w, "series\trank\tcumulative_share")
	for _, c := range []struct {
		label string
		cdf   analysis.ASRankCDF
	}{
		{"ipv4_zmap", analysis.ComputeASRankCDF(db, wd.V4.ZMapKeys())},
		{"ipv4_alt", analysis.ComputeASRankCDF(db, wd.V4.AltSvcKeys())},
		{"ipv4_svcb", analysis.ComputeASRankCDF(db, wd.V4.HTTPSRRKeys())},
		{"ipv6_zmap", analysis.ComputeASRankCDF(db, wd.V6.ZMapKeys())},
		{"ipv6_alt", analysis.ComputeASRankCDF(db, wd.V6.AltSvcKeys())},
		{"ipv6_svcb", analysis.ComputeASRankCDF(db, wd.V6.HTTPSRRKeys())},
	} {
		for i, share := range c.cdf.Shares {
			fmt.Fprintf(w, "%s\t%d\t%.5f\n", c.label, i+1, share)
		}
	}
	return nil
}

func (r *Report) writeFigure6TSV(w io.Writer) error {
	fmt.Fprintln(w, "week\tversion\tshare_pct")
	for _, wd := range r.Weeks {
		shares := analysis.IndividualVersionShares(wd.V4.ZMap)
		names := make([]string, 0, len(shares))
		for v := range shares {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, v := range names {
			fmt.Fprintf(w, "%d\t%s\t%.2f\n", wd.Week, v, 100*shares[v])
		}
	}
	return nil
}

func (r *Report) writeFigure9TSV(w io.Writer) error {
	all := append(append([]core.Result{}, r.StatefulSNIV4...), r.StatefulNoSNIV4...)
	all = append(all, r.StatefulSNIV6...)
	all = append(all, r.StatefulNoSNIV6...)
	fmt.Fprintln(w, "rank\ttargets\tases\tfingerprint")
	for i, c := range analysis.TPConfigDistribution(all, r.Universe.ASDB) {
		fp := strings.ReplaceAll(c.Fingerprint, "\t", " ")
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\n", i, c.Targets, c.ASes, fp)
	}
	return nil
}

func (r *Report) writeOverlapTSV(w io.Writer) error {
	wd := r.Headline()
	fmt.Fprintln(w, "family\ttotal\tzmap_only\talt_only\thttps_only\tshared")
	for _, fam := range []struct {
		label string
		d     *analysis.Discovery
	}{{"IPv4", wd.V4}, {"IPv6", wd.V6}} {
		o := analysis.ComputeOverlap(fam.d)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", fam.label, o.Total, o.ZMapOnly, o.AltOnly, o.RROnly, o.Shared)
	}
	return nil
}
