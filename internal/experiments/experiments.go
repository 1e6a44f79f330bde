// Package experiments orchestrates the full measurement campaign
// against the simulated Internet and regenerates every table and
// figure of the paper's evaluation: weekly stateless scans (ZMap
// version negotiation, DNS HTTPS-RR resolution, TLS-over-TCP Alt-Svc
// collection) for the time-series figures, and the week-18 stateful
// QScanner campaign for the outcome, TLS-comparison, Server-header
// and transport-parameter analyses.
package experiments

import (
	"context"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"time"

	"quicscan/internal/analysis"
	"quicscan/internal/campaign"
	"quicscan/internal/core"
	"quicscan/internal/dnsclient"
	"quicscan/internal/dnswire"
	"quicscan/internal/fingerprint"
	"quicscan/internal/internet"
	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
	"quicscan/internal/tlsscan"
	"quicscan/internal/zmapquic"
)

// Options configure a campaign.
type Options struct {
	// Spec is the week-18 universe specification; weekly scans derive
	// their specs from it.
	Spec internet.Spec
	// Weeks to scan statelessly (default: the paper's calendar weeks
	// 5,7,9,11,14,15,16,18).
	Weeks []int
	// Workers for stateful scans (default 64).
	Workers int
	// SkipWeekly skips the weekly stateless series (Figures 3,5,6,7),
	// keeping only week 18.
	SkipWeekly bool
	// Fingerprint runs the behavioral implementation-fingerprinting
	// scenario suite over every active deployment of the headline week
	// and records the resulting confusion matrix.
	Fingerprint bool
	// Migration classifies connection-migration support (NAT-rebind
	// probe) for every active deployment of the headline week.
	Migration bool
	// Resumption classifies the handshake fast path (session tickets,
	// 0-RTT, NEW_TOKEN reuse) for every active deployment of the
	// headline week with a two-dial probe.
	Resumption bool
}

func (o Options) withDefaults() Options {
	if len(o.Weeks) == 0 {
		o.Weeks = []int{5, 7, 9, 11, 14, 15, 16, 18}
	}
	if o.Workers == 0 {
		o.Workers = 64
	}
	return o
}

// maxSNITargetsPerAddr caps the domains scanned per address and source,
// the paper's ethical cap.
const maxSNITargetsPerAddr = 100

// DNSSourceStats records one week's HTTPS-RR resolution success for
// one input list (Figure 3).
type DNSSourceStats struct {
	Source   string
	Resolved int
	WithRR   int
}

// Rate returns the HTTPS-RR success rate in percent.
func (s DNSSourceStats) Rate() float64 {
	if s.Resolved == 0 {
		return 0
	}
	return 100 * float64(s.WithRR) / float64(s.Resolved)
}

// WeekData is the stateless view of one calendar week.
type WeekData struct {
	Week int
	V4   *analysis.Discovery
	V6   *analysis.Discovery
	DNS  []DNSSourceStats

	ZMapProbesV4, ZMapProbesV6 int
	ZMapBytesV4                int64
	TLSTargets                 int
	DomainsResolved            int
}

// Report is the complete campaign output.
type Report struct {
	Options Options

	// Weeks in ascending order; the last one is the headline week.
	Weeks []*WeekData

	// Week-18 stateful results.
	StatefulNoSNIV4, StatefulNoSNIV6 []core.Result
	StatefulSNIV4, StatefulSNIV6     []core.Result

	// TCP TLS results for the Table 5 comparison (same targets as the
	// stateful scans).
	TCPNoSNI, TCPSNI []tlsscan.Result

	// Padding ablation (Section 3.1).
	PaddedResponses, UnpaddedResponses int
	UnpaddedTopASShare                 float64

	// Behavioral fingerprinting confusion matrix (ground truth x
	// verdict), nil unless Options.Fingerprint was set.
	FingerprintConfusion *fingerprint.ConfusionMatrix

	// Per-profile migration-support classification, nil unless
	// Options.Migration was set.
	MigrationTable []ProfileRow

	// Per-profile handshake fast-path classification, nil unless
	// Options.Resumption was set.
	ResumptionTable []ProfileRow

	// Universe of the headline week (kept for AS lookups).
	Universe *internet.Universe

	// Stages is the campaign's timeline in start order. It is the one
	// part of a Report that holds wall-clock values, and no renderer or
	// TSV export reads it.
	Stages []Stage
}

// Headline returns the last (headline) week's data.
func (r *Report) Headline() *WeekData { return r.Weeks[len(r.Weeks)-1] }

// Stage is one step of the campaign as it ran. Stages overlap (DESIGN.md
// section 18), so a stage's duration is not its share of the wall clock.
type Stage struct {
	Week int
	// Name is one of dns, zmap-v4, zmap-v6, tls-altsvc and, in the
	// headline week, stateful, tcp-compare, padding, modes.
	Name string
	// Start and End are offsets from the start of Run.
	Start, End time.Duration
}

// timeline runs the campaign's stages and records when each ran.
// Stages started between two waits run side by side.
type timeline struct {
	t0   time.Time
	week int // of the stages being started; set between waits
	wg   sync.WaitGroup

	mu     sync.Mutex
	stages []Stage
	err    error
}

// stage starts fn on its own goroutine.
func (tl *timeline) stage(name string, fn func() error) {
	st := Stage{Week: tl.week, Name: name}
	tl.wg.Add(1)
	go func() {
		defer tl.wg.Done()
		st.Start = time.Since(tl.t0)
		err := fn()
		st.End = time.Since(tl.t0)
		tl.mu.Lock()
		defer tl.mu.Unlock()
		tl.stages = append(tl.stages, st)
		if err != nil && tl.err == nil {
			tl.err = fmt.Errorf("%s: %w", name, err)
		}
	}()
}

// wait returns once every started stage has, with the first error
// among them: a failed stage never leaves a sibling running on a
// universe its caller is about to stop.
func (tl *timeline) wait() error {
	tl.wg.Wait()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.err
}

// sweepDialer opens the socket of a ZMap sweep.
type sweepDialer func(*simnet.Network) (*simnet.PacketConn, error)

// Run executes the campaign.
func Run(opts Options) (*Report, error) {
	return run(opts, &timeline{t0: time.Now()}, (*simnet.Network).DialUDP)
}

// run is Run on its caller's timeline and sweep-socket source. Those
// three sockets are the ones the campaign opens itself, and failing to
// is the only error a started universe can cause; the scanners open
// their own through a callback and record a failure per target.
func run(opts Options, tl *timeline, dialSweep sweepDialer) (*Report, error) {
	opts = opts.withDefaults()
	report := &Report{Options: opts}

	weeks := opts.Weeks
	if opts.SkipWeekly {
		weeks = []int{weeks[len(weeks)-1]}
	}

	for i, week := range weeks {
		last := i == len(weeks)-1
		spec := opts.Spec
		spec.Week = week
		u := internet.Build(spec)
		if err := u.Start(internet.StartOptions{Stateful: last, Web: true}); err != nil {
			u.Stop()
			return nil, fmt.Errorf("experiments: starting week %d: %w", week, err)
		}

		tl.week = week
		wd, err := scanWeek(u, opts, tl, dialSweep)
		if err == nil && last {
			err = report.runHeadline(u, wd, opts, tl, dialSweep)
		}
		if err != nil {
			u.Stop()
			return nil, fmt.Errorf("experiments: week %d: %w", week, err)
		}
		report.Weeks = append(report.Weeks, wd)
		if last {
			// Keep the headline universe running until Close.
			report.Universe = u
		} else {
			u.Stop()
		}
	}
	sort.SliceStable(tl.stages, func(i, j int) bool { return tl.stages[i].Start < tl.stages[j].Start })
	report.Stages = tl.stages
	return report, nil
}

// Close releases the headline universe.
func (r *Report) Close() {
	if r.Universe != nil {
		r.Universe.Stop()
	}
}

// scanWeek runs the three stateless discovery methods. DNS goes first:
// the IPv6 sweep's target list and the Alt-Svc scan's domain join read
// its A/AAAA maps. The two sweeps and the TLS scan then share nothing
// they write, so the sweeps' cooldowns elapse together and under the
// CPU-bound TLS handshakes.
func scanWeek(u *internet.Universe, opts Options, tl *timeline, dialSweep sweepDialer) (*WeekData, error) {
	wd := &WeekData{
		Week: u.Spec.Week,
		V4:   analysis.NewDiscovery(),
		V6:   analysis.NewDiscovery(),
	}
	tl.stage("dns", func() error { resolveLists(u, wd); return nil })
	if err := tl.wait(); err != nil {
		return nil, err
	}
	tl.stage("zmap-v4", func() error { return sweepV4(u, wd, dialSweep) })
	tl.stage("zmap-v6", func() error { return sweepV6(u, wd, dialSweep) })
	tl.stage("tls-altsvc", func() error { collectAltSvc(u, wd, opts); return nil })
	if err := tl.wait(); err != nil {
		return nil, err
	}
	return wd, nil
}

// resolveLists is the DNS scan: A/AAAA/HTTPS over every input list.
func resolveLists(u *internet.Universe, wd *WeekData) {
	ctx := context.Background()
	cl := &dnsclient.Client{
		Server:     net.UDPAddrFromAddrPort(internet.DNSAddr),
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		Timeout:    2 * time.Second,
	}
	resolved := make(map[string]bool)
	var allNames []string
	// In name order, so that wd.DNS and with it figure3.tsv repeat.
	for _, src := range slices.Sorted(maps.Keys(u.SourceLists)) {
		names := u.SourceLists[src]
		stats := DNSSourceStats{Source: src}
		httpsResults := cl.ResolveBatch(ctx, names, dnswire.TypeHTTPS, 64)
		for _, res := range httpsResults {
			if res.Err != nil {
				continue
			}
			stats.Resolved++
			rrs := res.HTTPSRecords()
			if len(rrs) == 0 {
				continue
			}
			stats.WithRR++
			wd.V4.HTTPSRRDomains[res.Name] = true
			wd.V6.HTTPSRRDomains[res.Name] = true
			for _, rr := range rrs {
				for _, p := range rr.Params {
					for _, hint := range p.Hints {
						if hint.Is4() {
							wd.V4.HTTPSRR[hint] = true
						} else {
							wd.V6.HTTPSRR[hint] = true
						}
					}
				}
			}
		}
		wd.DNS = append(wd.DNS, stats)
		for _, n := range names {
			if !resolved[n] {
				resolved[n] = true
				allNames = append(allNames, n)
			}
		}
	}
	wd.DomainsResolved = len(allNames)

	// A and AAAA joins.
	for _, res := range cl.ResolveBatch(ctx, allNames, dnswire.TypeA, 64) {
		for _, rr := range res.Records {
			if rr.Type == dnswire.TypeA {
				wd.V4.DomainsByAddr[rr.Addr] = append(wd.V4.DomainsByAddr[rr.Addr], res.Name)
			}
		}
	}
	for _, res := range cl.ResolveBatch(ctx, allNames, dnswire.TypeAAAA, 64) {
		for _, rr := range res.Records {
			if rr.Type == dnswire.TypeAAAA {
				wd.V6.DomainsByAddr[rr.Addr.Unmap()] = append(wd.V6.DomainsByAddr[rr.Addr.Unmap()], res.Name)
			}
		}
	}
}

// sweepV4 is the ZMap scan of the IPv4 prefixes, through the campaign
// engine as cmd/zmapquic -prefixes runs it: one shard, no rate limit.
func sweepV4(u *internet.Universe, wd *WeekData, dialSweep sweepDialer) error {
	pc, err := dialSweep(u.Net)
	if err != nil {
		return err
	}
	defer pc.Close()
	zs := &zmapquic.Scanner{Conn: pc}
	eng, err := campaign.New(campaign.Config{
		Sweep: zmapquic.NewSweep(u.Spec.Seed, u.V4Prefixes()),
		Probe: campaign.ProbeWith(zs),
	})
	if err != nil {
		return err
	}
	err = eng.Sweep(context.Background(), zs, []net.PacketConn{pc}, 400*time.Millisecond, func(r zmapquic.Result) {
		wd.V4.ZMap[r.Addr] = r.Versions
	})
	if err != nil {
		return err
	}
	wd.ZMapProbesV4 = int(eng.Progress().Probes)
	wd.ZMapBytesV4 = int64(wd.ZMapProbesV4) * zmapquic.ProbeSize
	return nil
}

// sweepV6 is the ZMap scan of the IPv6 hitlist plus the AAAA-resolved
// addresses (Section 3.1).
func sweepV6(u *internet.Universe, wd *WeekData, dialSweep sweepDialer) error {
	v6set := make(map[netip.Addr]bool)
	for _, a := range u.IPv6Hitlist {
		v6set[a] = true
	}
	for a := range wd.V6.DomainsByAddr {
		v6set[a] = true
	}
	v6targets := make([]netip.Addr, 0, len(v6set))
	for a := range v6set {
		v6targets = append(v6targets, a)
	}
	pc, err := dialSweep(u.Net)
	if err != nil {
		return err
	}
	defer pc.Close()
	zs := &zmapquic.Scanner{Conn: pc, Cooldown: 400 * time.Millisecond}
	results, stats, err := zs.ScanAddrs(context.Background(), v6targets)
	if err != nil {
		return err
	}
	wd.ZMapProbesV6 = stats.ProbesSent
	for _, r := range results {
		wd.V6.ZMap[r.Addr] = r.Versions
	}
	return nil
}

// tlsScanner is the TLS-over-TCP scanner of both the Alt-Svc
// collection and the Table 5 comparison.
func tlsScanner(u *internet.Universe, opts Options) *tlsscan.Scanner {
	return &tlsscan.Scanner{
		Dial: func(ctx context.Context, addr netip.AddrPort) (net.Conn, error) {
			return u.Net.DialStream(addr)
		},
		RootCAs: u.RootCAs(),
		Timeout: 2 * time.Second,
		Workers: opts.Workers,
	}
}

// collectAltSvc is the TLS-over-TCP Alt-Svc collection.
func collectAltSvc(u *internet.Universe, wd *WeekData, opts Options) {
	var tlsTargets []tlsscan.Target
	for _, d := range u.Deployments {
		sni := ""
		if len(d.Domains) > 0 {
			sni = d.Domains[0]
		}
		tlsTargets = append(tlsTargets, tlsscan.Target{Addr: d.Addr, SNI: sni})
	}
	wd.TLSTargets = len(tlsTargets)
	for _, res := range tlsScanner(u, opts).Scan(context.Background(), tlsTargets) {
		if !res.OK || len(res.QUICALPNs) == 0 {
			continue
		}
		disc := wd.V4
		if res.Target.Addr.Is6() {
			disc = wd.V6
		}
		disc.AltSvc[res.Target.Addr] = res.QUICALPNs
		for _, dom := range disc.DomainsByAddr[res.Target.Addr] {
			disc.AltSvcDomains[dom] = true
		}
	}
}

// statefulTargets assembles the SNI and no-SNI target lists from the
// three discovery sources (Section 5).
func statefulTargets(wd *WeekData, family string) (noSNI []core.Target, sni []core.Target) {
	disc := wd.V4
	if family == "IPv6" {
		disc = wd.V6
	}
	// No-SNI scan: every ZMap-found address that announced a
	// QScanner-compatible version.
	for addr, versions := range disc.ZMap {
		if compatible(versions) {
			noSNI = append(noSNI, core.Target{Addr: addr, Source: "zmap"})
		}
	}

	// SNI scans: (address, domain) pairs per source.
	addPairs := func(addr netip.Addr, source string) {
		doms := disc.DomainsByAddr[addr]
		if len(doms) > maxSNITargetsPerAddr {
			doms = doms[:maxSNITargetsPerAddr]
		}
		for _, dom := range doms {
			sni = append(sni, core.Target{Addr: addr, SNI: dom, Source: source})
		}
	}
	for addr, versions := range disc.ZMap {
		if compatible(versions) {
			addPairs(addr, "zmap")
		}
	}
	for addr := range disc.AltSvc {
		addPairs(addr, "alt-svc")
	}
	for addr := range disc.HTTPSRR {
		addPairs(addr, "https-rr")
	}
	return noSNI, sni
}

// compatible checks for a version the QScanner supports (drafts
// 29/32/34 or v1), matching the paper's target filtering.
func compatible(versions []quicwire.Version) bool {
	for _, v := range versions {
		switch v {
		case quicwire.VersionDraft29, quicwire.VersionDraft32, quicwire.VersionDraft34, quicwire.Version1:
			return true
		}
	}
	return false
}

// runHeadline is the headline week's second half. The stateful scan
// waits out two-second timers on a quarter of its targets; the TCP
// comparison and the padding ablation read only what discovery left
// behind, so they run on their own sockets while it waits. The
// behavioural modes run last, on a universe nothing else is loading.
func (r *Report) runHeadline(u *internet.Universe, wd *WeekData, opts Options, tl *timeline, dialSweep sweepDialer) error {
	noSNI4, sni4 := statefulTargets(wd, "IPv4")
	noSNI6, sni6 := statefulTargets(wd, "IPv6")

	tl.stage("stateful", func() error { r.runStateful(u, opts, noSNI4, noSNI6, sni4, sni6); return nil })
	tl.stage("tcp-compare", func() error {
		// Matching TCP scans for Table 5.
		ts := tlsScanner(u, opts)
		r.TCPNoSNI = ts.Scan(context.Background(), toTLS(slices.Concat(noSNI4, noSNI6)))
		r.TCPSNI = ts.Scan(context.Background(), toTLS(slices.Concat(sni4, sni6)))
		return nil
	})
	tl.stage("padding", func() error { return r.runPaddingAblation(u, wd, dialSweep) })
	if err := tl.wait(); err != nil {
		return err
	}
	tl.stage("modes", func() error { r.runModes(u, opts); return nil })
	return tl.wait()
}

func toTLS(targets []core.Target) []tlsscan.Target {
	out := make([]tlsscan.Target, len(targets))
	for i, t := range targets {
		out[i] = tlsscan.Target{Addr: t.Addr, SNI: t.SNI}
	}
	return out
}

// runStateful scans the four target lists in one pass, so that the
// worker pool drains behind its last timers once and not once per
// list. The no-SNI lists go first: they hold nearly every silent
// target, and the SNI lists' millisecond handshakes fill the workers
// their tail frees.
func (r *Report) runStateful(u *internet.Universe, opts Options, noSNI4, noSNI6, sni4, sni6 []core.Target) {
	qs := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:    u.RootCAs(),
		Timeout:    2 * time.Second,
		Workers:    opts.Workers,
	}
	defer qs.Close()

	res := qs.Scan(context.Background(), slices.Concat(noSNI4, noSNI6, sni4, sni6))
	// Capacity is cut with length: an append to one list must not
	// write into the next.
	cut := func(list []core.Target) []core.Result {
		n := len(list)
		head := res[:n:n]
		res = res[n:]
		return head
	}
	r.StatefulNoSNIV4 = cut(noSNI4)
	r.StatefulNoSNIV6 = cut(noSNI6)
	r.StatefulSNIV4 = cut(sni4)
	r.StatefulSNIV6 = cut(sni6)
}

// runPaddingAblation reruns the v4 sweep without padding
// (Section 3.1: only 11.3% answer, 95.4% from one AS).
func (r *Report) runPaddingAblation(u *internet.Universe, wd *WeekData, dialSweep sweepDialer) error {
	ctx := context.Background()
	pc, err := dialSweep(u.Net)
	if err != nil {
		return err
	}
	defer pc.Close()
	// The probes leave in one burst and every answer has to arrive
	// inside the cooldown, from responders that share the CPUs with two
	// scanners' handshakes. The stateful pass beside it waits at least
	// one 2 s timer, so giving the responders as long costs nothing;
	// 400 ms lost answers under the race detector (DESIGN.md section 18).
	zs := &zmapquic.Scanner{Conn: pc, Cooldown: 2 * time.Second, NoPadding: true}
	var targets []netip.Addr
	for addr := range wd.V4.ZMap {
		targets = append(targets, addr)
	}
	results, _, err := zs.ScanAddrs(ctx, targets)
	if err != nil {
		return err
	}
	r.PaddedResponses = len(wd.V4.ZMap)
	r.UnpaddedResponses = len(results)
	if len(results) > 0 {
		byAS := make(map[string]int)
		for _, res := range results {
			if asn, ok := u.ASDB.Lookup(res.Addr); ok {
				byAS[fmt.Sprint(asn)]++
			}
		}
		top := 0
		for _, n := range byAS {
			if n > top {
				top = n
			}
		}
		r.UnpaddedTopASShare = float64(top) / float64(len(results))
	}
	return nil
}
