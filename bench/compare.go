package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles judges run b against run a, both -out files of the same
// seed: first the determinism fingerprints, which must be identical,
// then every end-to-end metric against its bound. A metric whose
// spread on either side is wider than its bound is unresolved, not
// unchanged. Any regression, unresolved metric or fingerprint
// difference is an error.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	find := func(rs []*result, name string) *result {
		for _, r := range rs {
			if r.Workload == name && !r.Trace {
				return r
			}
		}
		return nil
	}

	bad := 0
	for i := range workloads {
		name := workloads[i].name
		ra, rb := find(a, name), find(b, name)
		if ra == nil || rb == nil {
			continue
		}
		if ra.Seed != rb.Seed {
			return fmt.Errorf("%s: seeds differ (%d, %d): nothing to compare", name, ra.Seed, rb.Seed)
		}
		if diff := diffCounts(ra.Fingerprint, rb.Fingerprint); diff != "" {
			fmt.Fprintf(w, "%-15s fingerprint DIFFERS: %s\n", name, diff)
			bad++
			continue
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-15s failed ops rose from %d to %d\n", name, ra.Failed, rb.Failed)
			bad++
		}
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.name], rb.Metrics[d.name]
			v := judge(d, ma, mb)
			if v == "regression" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-15s %-16s %-10s %14.4f -> %14.4f %-6s (%+6.2f%%, bound %2.0f%%, spread %5.2f%% / %5.2f%%)  host.calib_drift_pct %+.2f / %+.2f\n",
				name, d.name, v, ma.Value, mb.Value, d.unit,
				100*(mb.Value-ma.Value)/ma.Value, 100*d.bound,
				100*spread(ma), 100*spread(mb), ra.DriftPct, rb.DriftPct)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons are not clean", bad)
	}
	return nil
}

// spread is the inter-quartile range as a share of the median.
func spread(m summary) float64 {
	if m.Value == 0 {
		return 0
	}
	return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value)
}

// judge applies one metric's bound to the two medians.
func judge(d decl, a, b summary) string {
	worse := (b.Value - a.Value) / a.Value
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.bound:
		return "regression"
	case spread(a) > d.bound || spread(b) > d.bound:
		return "unresolved"
	case worse < -d.bound:
		return "improved"
	}
	return "unchanged"
}
