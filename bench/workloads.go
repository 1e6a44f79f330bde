package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"time"

	"quicscan/internal/campaign"
	"quicscan/internal/core"
	"quicscan/internal/experiments"
	"quicscan/internal/internet"
	"quicscan/internal/quic"
	"quicscan/internal/zmapquic"
)

// clients is the closed-loop client count of every workload: 2 workers
// over 2 shards, which already saturates the 2-CPU reference host
// (2 -> 4 -> 8 -> 64 workers moved scan throughput by under 10 %).
const clients = 2

// workload is one named set of inputs. The names are fixed: later
// issues cite them.
type workload struct {
	name string
	why  string
	// repSeconds is what one repetition takes on the 2-CPU reference
	// host; it sizes a run of -seconds into whole repetitions.
	repSeconds float64
	// open builds the workload's session on a started fixture and runs
	// its warm-up or priming pass, which counts as set-up. nil for
	// campaign-mixed, which builds its own universe per repetition.
	open func(f *fixture, cfg config) (session, error)
	// residual is the ledger's account of one op against the traced
	// run's: what the layers add up to, and what the workload measured
	// (its untraced CPU us per op and its median root span in ms are on
	// offer).
	residual func(l *ledger, cpuUs, opMs float64) (predicted, measured float64)
}

var workloads = []workload{
	{
		name: "sweep-vn", repSeconds: 3,
		why:  "per-probe cost of the stateless sweep at a realistic 0.03 % hit rate: zmapquic, netbatch, campaign, simnet, quicwire work; quic, crypto/tls, h3, core do not",
		open: openSweep,
		residual: func(l *ledger, cpuUs, _ float64) (float64, float64) {
			// ns of CPU per probe: walk the permutation and the engine,
			// key the probe, hand it to the network.
			return l.get("campaign.ns_per_addr") + l.get("zmapquic.build_probe_ns") +
				l.get("netbatch.simnet_write_ns_per_dgram"), 1000 * cpuUs
		},
	},
	{
		name: "scan-cold", repSeconds: 3,
		why:  "full handshake plus HTTP/3 HEAD with no timers on the path: quic, quiccrypto, crypto/tls, transportparams, h3, core work; zmapquic, campaign, DNS, tlsscan do not",
		open: func(f *fixture, cfg config) (session, error) { return openScan(f, cfg, false) },
		residual: func(l *ledger, _, opMs float64) (float64, float64) {
			return l.get("core.scan_target_ms_p50"), opMs
		},
	},
	{
		name: "scan-rescan", repSeconds: 3,
		why:  "the same layers used differently: PSK resumption, 0-RTT early HEAD, NEW_TOKEN store, cert-memo hits; a cold-path gain that costs the resumed path shows here",
		open: func(f *fixture, cfg config) (session, error) { return openScan(f, cfg, true) },
		residual: func(l *ledger, _, opMs float64) (float64, float64) {
			return l.get("core.rescan_target_ms_p50"), opMs
		},
	},
	{
		name: "campaign-mixed", repSeconds: 20,
		why: "the paper's pipeline as users run it (DNS, sweep, TLS-over-TCP, stateful scan, tables): the only run of dns*, tlsscan, altsvc, analysis; timer-bound; memory is its headline",
	},
}

// reps is how many repetitions a run of cfg.seconds holds; one always
// runs.
func (w *workload) reps(cfg config) int {
	if n := int(cfg.seconds / w.repSeconds); n > 1 {
		return n
	}
	return 1
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// session is a workload opened on a fixture.
type session interface {
	// rep runs one repetition and returns the ops attempted and how
	// many ended with a verdict other than the ground truth's.
	rep(i int, tr *tracer) (attempted, failed int)
	// counts are the exact counts of the last repetition, which must
	// repeat bit for bit under a seed.
	counts() map[string]string
	// unstable are counts of the last repetition that should repeat and
	// do not at HEAD; nil when there are none.
	unstable() map[string]string
	// mismatches names the first few ops that failed, for the report.
	mismatches() []string
	close()
}

const maxMismatches = 40

// ---- sweep-vn ----------------------------------------------------------

// sweepSession is the production path of cmd/zmapquic: a sharded
// campaign engine whose workers flat-combine probes into one batched
// socket, with one collector draining the responses.
type sweepSession struct {
	f     *fixture
	seed  uint64
	conn  net.PacketConn
	sc    *zmapquic.Scanner
	truth map[netip.Addr]bool
	pfx   []netip.Prefix

	last map[string]string
	bad  []string
}

func openSweep(f *fixture, cfg config) (session, error) {
	conn, err := f.dialUDP()
	if err != nil {
		return nil, err
	}
	s := &sweepSession{
		f: f, seed: cfg.seed, conn: conn,
		sc:    &zmapquic.Scanner{Conn: conn},
		truth: f.vnResponders(),
		pfx:   append(f.u.V4Prefixes(), cfg.dark),
	}
	// Warm-up: the allocated prefixes alone, which fills the batch and
	// buffer pools and touches every responder once.
	if _, failed := s.sweep(zmapquic.NewSweep(cfg.seed, f.u.V4Prefixes()), nil); failed != 0 {
		return nil, fmt.Errorf("sweep-vn warm-up: %d wrong verdicts: %v", failed, s.bad)
	}
	return s, nil
}

func (s *sweepSession) rep(i int, tr *tracer) (int, int) {
	return s.sweep(zmapquic.NewSweep(s.seed+uint64(i), s.pfx), tr)
}

func (s *sweepSession) sweep(sw *zmapquic.Sweep, tr *tracer) (attempted, failed int) {
	var (
		mu   sync.Mutex
		hits = make(map[netip.Addr]bool)
	)
	ctx, cancel := context.WithCancel(context.Background())
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		s.sc.CollectResponsesOn(ctx, s.conn, func(r zmapquic.Result) {
			mu.Lock()
			hits[r.Addr] = true
			mu.Unlock()
		})
	}()
	eng, err := campaign.New(campaign.Config{
		Sweep:   sw,
		Shards:  clients,
		Workers: clients,
		Sink:    campaign.NullSink{},
		Probe: func(_ context.Context, addr netip.Addr) error {
			_, err := s.sc.SendProbe(addr)
			return err
		},
	})
	if err == nil {
		id := tr.start("campaign.Engine.Run", 0, 0)
		err = eng.Run(ctx)
		tr.end(id)
	}
	time.Sleep(100 * time.Millisecond) // cooldown for responses in flight
	cancel()
	<-collected

	s.bad = s.bad[:0]
	note := func(format string, a ...any) {
		failed++
		if len(s.bad) < maxMismatches {
			s.bad = append(s.bad, fmt.Sprintf(format, a...))
		}
	}
	if err != nil {
		note("engine: %v", err)
		return int(sw.Total()), int(sw.Total())
	}
	attempted = int(sw.Total())
	probes := eng.Progress().Probes
	if probes != sw.Total() {
		note("engine issued %d probes for a sweep of %d", probes, sw.Total())
	}
	for a := range s.truth {
		if !hits[a] {
			note("%v answers version negotiation but was not hit", a)
		}
	}
	for a := range hits {
		if !s.truth[a] {
			note("%v was hit but is not a responder", a)
		}
	}
	s.last = map[string]string{
		"probes": strconv.FormatUint(probes, 10),
		"hits":   strconv.Itoa(len(hits)),
	}
	return attempted, failed
}

func (s *sweepSession) counts() map[string]string   { return s.last }
func (s *sweepSession) unstable() map[string]string { return nil }
func (s *sweepSession) mismatches() []string        { return s.bad }
func (s *sweepSession) close()                      { s.conn.Close() }

// ---- scan-cold / scan-rescan -------------------------------------------

type scanSession struct {
	f  *fixture
	sc *core.Scanner
	// targets is the list once, for the warm-up pass; timed is one
	// repetition's worth of it.
	targets, timed []core.Target
	// resumed and zeroRTT bracket how many ops of timed the ground truth
	// says resume and get their early data accepted (scan-rescan).
	rescan           bool
	resumed, zeroRTT bracket

	last, loose map[string]string
	bad         []string
}

func openScan(f *fixture, cfg config, rescan bool) (session, error) {
	targets := f.responsiveNoRetry()
	if len(targets) == 0 {
		return nil, fmt.Errorf("universe has no responsive no-retry deployment")
	}
	s := &scanSession{
		f: f, targets: targets, timed: targets, rescan: rescan,
		sc: &core.Scanner{
			DialPacket: f.dialUDP,
			RootCAs:    f.u.RootCAs(),
			Timeout:    2 * time.Second,
			Workers:    clients,
		},
	}
	// A repetition is the same number of ops on every seed, the list
	// cycled: the servers keep state per finished connection, so a run's
	// memory follows its op count, and list lengths differ by seed.
	if cfg.scanOps > 0 {
		s.timed = make([]core.Target, cfg.scanOps)
		for i := range s.timed {
			s.timed[i] = targets[i%len(targets)]
		}
	}
	if rescan {
		s.sc.SessionCache = quic.NewSessionCache(4 * len(targets))
		// The cache is keyed by SNI, so two deployments that share a
		// first domain (a dual-stack pair) evict each other's tickets:
		// they may resume, the ground truth cannot say they must.
		shared := make(map[string]int)
		for _, t := range targets {
			shared[t.SNI]++
		}
		for _, t := range s.timed {
			must := 0
			if shared[t.SNI] == 1 {
				must = 1
			}
			switch f.u.ByAddr[t.Addr].Profile.Quirks.Resumption {
			case internet.Resumption0RTT:
				s.resumed.add(must)
				s.zeroRTT.add(must)
			case internet.ResumptionTicketNo0RTT:
				s.resumed.add(must)
			}
		}
	}
	// One untimed pass: warms pools and the cert memo, and for
	// scan-rescan fills the ticket and token caches.
	if _, failed := s.scan(nil, targets); failed != 0 {
		return nil, fmt.Errorf("warm-up pass: %d wrong verdicts: %v", failed, s.bad)
	}
	return s, nil
}

func (s *scanSession) rep(_ int, tr *tracer) (attempted, failed int) {
	s.bad = s.bad[:0]
	results, failed := s.scan(tr, s.timed)
	outcomes := make(map[string]int)
	resumed, zeroRTT := 0, 0
	for i := range results {
		r := &results[i]
		outcomes["outcome_"+string(r.Outcome)]++
		if r.Resumed {
			resumed++
		}
		if r.ZeroRTTAccepted {
			zeroRTT++
		}
	}
	s.last = map[string]string{"ops": strconv.Itoa(len(results))}
	for k, v := range outcomes {
		s.last[k] = strconv.Itoa(v)
	}
	// A ticket that arrives after the scanner has closed the connection
	// is lost and the next visit pays a full handshake, so these two sit
	// a few ops under the ground truth and move with timing (README,
	// "Determinism"): held to within 2 % of it, not to the bit.
	s.loose = map[string]string{"resumed": strconv.Itoa(resumed), "zero_rtt_accepted": strconv.Itoa(zeroRTT)}
	if s.rescan {
		failed += s.outside("resumed", resumed, s.resumed)
		failed += s.outside("0-RTT accepted", zeroRTT, s.zeroRTT)
	} else if resumed != 0 {
		failed += resumed
		s.bad = append(s.bad, fmt.Sprintf("%d ops resumed without a session cache", resumed))
	}
	return len(results), failed
}

// bracket is what the ground truth allows a count to be: must ops have
// to, may ops can.
type bracket struct{ must, may int }

func (b *bracket) add(must int) {
	b.must += must
	b.may++
}

// outside is how many ops got lies outside [98 % of must, may].
func (s *scanSession) outside(what string, got int, want bracket) int {
	low := want.must - want.must/50
	switch {
	case got < low:
		s.bad = append(s.bad, fmt.Sprintf("%d ops %s, ground truth at least %d", got, what, want.must))
		return low - got
	case got > want.may:
		s.bad = append(s.bad, fmt.Sprintf("%d ops %s, ground truth at most %d", got, what, want.may))
		return got - want.may
	}
	return 0
}

// scan scans list. Untraced it is Scanner.Scan; traced, the bench
// drives the two workers itself so every ScanTarget gets a root span.
func (s *scanSession) scan(tr *tracer, list []core.Target) ([]core.Result, int) {
	ctx := context.Background()
	var results []core.Result
	if tr == nil {
		results = s.sc.Scan(ctx, list)
	} else {
		results = make([]core.Result, len(list))
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					id := tr.start("core.Scanner.ScanTarget", 0, i+1)
					results[i] = s.sc.ScanTarget(ctx, list[i])
					tr.end(id)
				}
			}()
		}
		for i := range list {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	failed := 0
	for i := range results {
		if !s.f.checkScan(&results[i]) {
			failed++
			if len(s.bad) < maxMismatches {
				r := &results[i]
				s.bad = append(s.bad, fmt.Sprintf("%v sni=%s: %s %s", r.Target.Addr, r.Target.SNI, r.Outcome, r.Error))
			}
		}
	}
	return results, failed
}

func (s *scanSession) counts() map[string]string   { return s.last }
func (s *scanSession) unstable() map[string]string { return s.loose }
func (s *scanSession) mismatches() []string        { return s.bad }
func (s *scanSession) close()                      { s.sc.Close() }

// ---- campaign-mixed ----------------------------------------------------

// campaignRun is one experiments.Run plus RenderAll, scored against
// the universe it scanned.
type campaignRun struct {
	report    *experiments.Report
	attempted int
	failed    int
	counts    map[string]string
	unstable  map[string]string
	bad       []string
	// renderMs is the RenderAll share of the run.
	renderMs float64
}

func campaignOptions(cfg config) experiments.Options {
	// Workers: 64 is the experiments default and is kept: those workers
	// sleep on 2 s handshake timers, they do not compete for the CPUs.
	return experiments.Options{
		Spec:       internet.Spec{Seed: cfg.seed, Scale: cfg.scale},
		SkipWeekly: true,
		Workers:    64,
	}
}

// runCampaign runs the pipeline once. smp, when non-nil, watches the
// stage counters for the duration of experiments.Run.
func runCampaign(cfg config, tr *tracer, smp *stageSampler) (*campaignRun, error) {
	id := tr.start("experiments.Run", 0, 0)
	smp.start()
	report, err := experiments.Run(campaignOptions(cfg))
	smp.stop()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("experiments.Report.RenderAll", 0, 0)
	t0 := time.Now()
	rendered := report.RenderAll()
	renderMs := ms(time.Since(t0))
	tr.end(id)

	c := &campaignRun{report: report, renderMs: renderMs}
	f := &fixture{u: report.Universe}
	all, noSNI := make(map[string]int), make(map[string]int)
	score := func(set []core.Result, tally map[string]int) {
		for i := range set {
			r := &set[i]
			c.attempted++
			all["outcome_"+string(r.Outcome)]++
			if tally != nil {
				tally["nosni_outcome_"+string(r.Outcome)]++
			}
			if want := f.expectedOutcome(r.Target); r.Outcome != want {
				c.failed++
				c.bad = append(c.bad, fmt.Sprintf("%v sni=%q: got %s (%s), ground truth %s",
					r.Target.Addr, r.Target.SNI, r.Outcome, r.Error, want))
			}
		}
	}
	score(report.StatefulNoSNIV4, noSNI)
	score(report.StatefulNoSNIV6, noSNI)
	score(report.StatefulSNIV4, nil)
	score(report.StatefulSNIV6, nil)
	sort.Strings(c.bad) // target order out of experiments.Run follows map iteration
	if len(c.bad) > maxMismatches {
		c.bad = c.bad[:maxMismatches]
	}
	sum := sha256.Sum256([]byte(rendered))
	wd := report.Headline()
	// What depends only on the deployments repeats under a seed.
	c.counts = map[string]string{
		"zmap_probes_v4":     strconv.Itoa(wd.ZMapProbesV4),
		"zmap_hits_v4":       strconv.Itoa(len(wd.V4.ZMap)),
		"zmap_hits_v6":       strconv.Itoa(len(wd.V6.ZMap)),
		"tls_targets":        strconv.Itoa(wd.TLSTargets),
		"altsvc_v4":          strconv.Itoa(len(wd.V4.AltSvc)),
		"altsvc_v6":          strconv.Itoa(len(wd.V6.AltSvc)),
		"nosni_targets":      strconv.Itoa(len(report.StatefulNoSNIV4) + len(report.StatefulNoSNIV6)),
		"padded_responses":   strconv.Itoa(report.PaddedResponses),
		"unpadded_responses": strconv.Itoa(report.UnpaddedResponses),
	}
	for k, v := range noSNI {
		c.counts[k] = strconv.Itoa(v)
	}
	// What depends on which names entered which input list does not, at
	// HEAD: internet.Build ranges over a map while it draws them
	// (README, "Determinism"). Reported, not compared.
	c.unstable = map[string]string{
		"ops":              strconv.Itoa(c.attempted),
		"render_sha256":    hex.EncodeToString(sum[:]),
		"domains_resolved": strconv.Itoa(wd.DomainsResolved),
		"httpsrr_v4":       strconv.Itoa(len(wd.V4.HTTPSRR)),
		"httpsrr_v6":       strconv.Itoa(len(wd.V6.HTTPSRR)),
		"tcp_results":      strconv.Itoa(len(report.TCPNoSNI) + len(report.TCPSNI)),
	}
	for k, v := range all {
		c.unstable[k] = strconv.Itoa(v)
	}
	return c, nil
}
