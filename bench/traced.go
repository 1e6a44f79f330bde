package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"quicscan/internal/telemetry"
)

// outDir is where trace files and scratch files go; it is inside the
// checkout and ignored by git.
var outDir = filepath.Join("bench", "out")

// ledgerCampaignScale sizes the reference campaign the ledger runs on
// the three workloads that are not campaign-mixed, so that the
// experiments.* and analysis.* names exist in every traced run. It is
// the tier-1 test scale: one second of work instead of twenty.
const ledgerCampaignScale = 32768

// runTraced runs one workload with the span recorder on, then the
// ledger pass on the same started universe: the per-layer metrics.
func runTraced(w *workload, cfg config) (*result, error) {
	res := newResult(w, cfg, true)
	tr := newTracer()
	l := &ledger{tr: tr, seed: cfg.seed, out: res.Metrics}
	var err error
	if w.open == nil {
		err = tracedCampaign(cfg, res, l)
	} else {
		err = tracedFixture(w, cfg, res, l)
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	l.set("host.calib_ns", (res.CalibNs[0]+res.CalibNs[1])/2)
	l.set("host.calib_drift_pct", res.DriftPct)
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			return nil, fmt.Errorf("ledger did not measure %s", d.name)
		}
	}
	if err := tr.flush(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// idleUniverse records what an idle started universe holds, and runs
// the leaf loops while it is idle: they allocate, so their cost moves
// with the heap the collector has to walk, and this way it is the same
// heap on every workload.
func (l *ledger) idleUniverse(f *fixture) {
	l.f = f
	l.set("internet.build_ms", f.buildMs)
	l.set("internet.start_ms", f.startMs)
	l.set("internet.heap_mb", heapLiveMB())
	l.set("internet.goroutines", float64(runtime.NumGoroutine()))
	l.leafLoops()
}

func tracedFixture(w *workload, cfg config, res *result, l *ledger) error {
	f, err := newFixture(cfg.seed, cfg.scale, true)
	if err != nil {
		return err
	}
	defer f.u.Stop()
	l.idleUniverse(f)
	s, err := w.open(f, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}

	// The workload again, a third of its untraced size, untraced and
	// traced repetitions in the order A B B A: the servers' retained state
	// makes every repetition a little slower than the one before, and
	// this order cancels a steady drift out of the difference.
	pairs := (w.reps(cfg) + 2) / 3
	var plain, traced []rep
	for i := 0; i < pairs; i++ {
		order := []*tracer{nil, l.tr}
		if i%2 == 1 {
			order = []*tracer{l.tr, nil}
		}
		for _, t := range order {
			var attempted, failed int
			r := timed(func() int {
				attempted, failed = s.rep(i, t)
				return attempted - failed
			})
			res.record(attempted, failed, s.mismatches(), s.counts())
			if t == nil {
				plain = append(plain, r)
			} else {
				traced = append(traced, r)
			}
		}
	}
	res.Unstable = s.unstable()
	s.close()
	_, plainCPU, _, _ := perOp(plain)
	_, tracedCPU, _, _ := perOp(traced)
	l.set("trace.overhead_pct", 100*(median(tracedCPU)-median(plainCPU))/median(plainCPU))
	// That difference carries the host's noise and the drift between
	// repetitions, several percent with two repetitions a side. What the
	// recorder itself spent is steady: spans recorded times the cost of
	// one, as a share of the traced repetitions' CPU time.
	var tracedCPUTotal time.Duration
	for _, r := range traced {
		tracedCPUTotal += r.cpu
	}
	l.set("trace.recorder_pct", 100*float64(l.tr.len())*spanCostNs()/float64(tracedCPUTotal.Nanoseconds()))
	opMs := l.tr.rootDurationsMs("core.Scanner.ScanTarget")

	if err := l.run(); err != nil {
		return err
	}

	// The reference campaign for experiments.* and analysis.*.
	small := cfg
	small.scale = ledgerCampaignScale
	smp := &stageSampler{}
	c, err := runCampaign(small, l.tr, smp)
	if err != nil {
		return fmt.Errorf("ledger reference campaign: %w", err)
	}
	c.report.Close()
	if c.failed > 0 {
		return fmt.Errorf("ledger reference campaign: %d wrong verdicts: %v", c.failed, c.bad)
	}
	l.setStages(smp, c)

	// How far the layers are from adding up to the op the workload
	// measured.
	predicted, measured := w.residual(l, median(plainCPU), median(opMs))
	l.set("ledger.residual_pct", 100*(predicted-measured)/measured)
	return nil
}

func tracedCampaign(cfg config, res *result, l *ledger) error {
	idle, err := newFixture(cfg.seed, cfg.scale, true)
	if err != nil {
		return err
	}
	l.idleUniverse(idle)
	idle.u.Stop()
	releaseHeap()

	smp := &stageSampler{}
	cpu0 := cpuTime()
	c, err := runCampaign(cfg, l.tr, smp)
	if err != nil {
		return err
	}
	defer c.report.Close()
	cpu := cpuTime() - cpu0
	res.record(c.attempted, c.failed, c.bad, c.counts)
	res.Unstable = c.unstable
	sum := l.setStages(smp, c)
	// An untraced twin of a 20 s run does not fit the time cap, so the
	// overhead here is what tracing itself spent: the sampler's reads of
	// the registry, as a share of the run's CPU time.
	own := 100 * smp.cost.Seconds() / cpu.Seconds()
	l.set("trace.overhead_pct", own)
	l.set("trace.recorder_pct", own)
	l.set("ledger.residual_pct", 100*(sum-smp.wall.Seconds())/smp.wall.Seconds())

	l.f = &fixture{u: c.report.Universe}
	return l.run()
}

// spanCostNs is what recording one span costs: start plus end.
func spanCostNs() float64 {
	scratch := newTracer()
	return nsPerCall(func() { scratch.end(scratch.start("x", 0, 0)) })
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// rootDurationsMs lists the durations of the root spans called name.
func (t *tracer) rootDurationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// ---- campaign stages, recovered from outside ---------------------------

// stageSampler reads four counters of the registry every 100 ms while
// experiments.Run runs. The stages run one after the other, so the
// first movement of each counter is a stage boundary.
type stageSampler struct {
	samples []stageSample
	cost    time.Duration // time spent reading the registry
	wall    time.Duration // start to stop
	quit    chan struct{}
	wg      sync.WaitGroup
}

type stageSample struct {
	at                   time.Duration
	dns, zmap, tls, core uint64
}

func (s *stageSampler) read(t0 time.Time) {
	before := time.Now()
	c := counters(telemetry.Default().Snapshot().Counters)
	s.cost += time.Since(before)
	s.samples = append(s.samples, stageSample{
		at:   time.Since(t0),
		dns:  c.sum("dns_queries_total"),
		zmap: c.sum("zmapquic_probes_sent_total"),
		tls:  c.sum("tlsscan_handshakes_total"),
		core: c.sum("core_scan_targets_total"),
	})
}

func (s *stageSampler) start() {
	if s == nil {
		return
	}
	t0 := time.Now()
	s.read(t0)
	s.quit = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				s.read(t0)
				s.wall = time.Since(t0)
				return
			case <-tick.C:
				s.read(t0)
			}
		}
	}()
}

func (s *stageSampler) stop() {
	if s == nil {
		return
	}
	close(s.quit)
	s.wg.Wait()
}

// stages cuts the run at the first movement of each stage's counter.
// dns includes the Build and Start that precede it; the stages are
// contiguous, so they sum to the run's wall clock.
func (s *stageSampler) stages() map[string]float64 {
	next := func(from int, moved func(base, now stageSample) bool) int {
		for i := from + 1; i < len(s.samples); i++ {
			if moved(s.samples[from], s.samples[i]) {
				return i
			}
		}
		return len(s.samples) - 1
	}
	zmapMoved := func(b, n stageSample) bool { return n.zmap > b.zmap }
	tlsMoved := func(b, n stageSample) bool { return n.tls > b.tls }
	coreMoved := func(b, n stageSample) bool { return n.core > b.core }
	iZmap := next(0, zmapMoved)
	iTLS := next(iZmap, tlsMoved)
	iCore := next(iTLS, coreMoved)
	iTCP := next(iCore, tlsMoved)
	iPad := next(iTCP, zmapMoved)
	at := func(i int) float64 { return s.samples[i].at.Seconds() }
	return map[string]float64{
		"experiments.dns_s":         at(iZmap),
		"experiments.zmap_s":        at(iTLS) - at(iZmap),
		"experiments.tls_s":         at(iCore) - at(iTLS),
		"experiments.stateful_s":    at(iTCP) - at(iCore),
		"experiments.tcp_compare_s": at(iPad) - at(iTCP),
		"experiments.padding_s":     at(len(s.samples)-1) - at(iPad),
	}
}

// setStages records a campaign's stages and render time and returns
// the stages' sum in seconds.
func (l *ledger) setStages(smp *stageSampler, c *campaignRun) float64 {
	sum := 0.0
	for name, v := range smp.stages() {
		l.set(name, v)
		sum += v
	}
	l.set("analysis.render_all_ms", c.renderMs)
	return sum
}
