package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"quicscan/internal/internet"
)

// config is what one run of one workload is sized by. The seed is the
// only argument that changes the inputs.
type config struct {
	seed  uint64
	scale int
	// seconds is how long one run measures. It is turned into a fixed
	// repetition count per workload (workload.reps), not a deadline: the
	// servers keep state per finished connection, so memory metrics are
	// only steady when every run does the same number of ops.
	seconds float64
	// dark is the unanswered prefix sweep-vn adds to the allocated ones.
	dark netip.Prefix
	// scanOps is the op count of one scan-* repetition: 90 passes over
	// the 92 targets of seed 9, about 3 s. The servers' retained state
	// makes every collection cycle dearer as a run goes on (at 1 GB live
	// a cycle costs a third of a second), so a repetition has to be long
	// enough to hold about one cycle, or repetitions alternate between
	// fast and slow. 0 means one pass over the list.
	scanOps int
	// setups is how often set-up is repeated for its median.
	setups int
}

func defaultConfig(seed uint64, seconds float64) config {
	return config{seed: seed, scale: fixtureScale, seconds: seconds, dark: darkPrefix, scanOps: 8280, setups: 9}
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	// Fingerprint holds the exact counts of one repetition; they must
	// repeat bit for bit under a seed.
	Fingerprint map[string]string `json:"fingerprint"`
	// Unstable are counts that should repeat under a seed and do not at
	// HEAD (README, "Determinism"); they are reported, not compared.
	Unstable   map[string]string `json:"unstable_counts,omitempty"`
	Mismatches []string          `json:"mismatches,omitempty"`
	// CalibNs is the fixed host calibration loop (ns per round) before
	// and after the workload; DriftPct is how far they are apart.
	CalibNs  [2]float64 `json:"calib_ns"`
	DriftPct float64    `json:"calib_drift_pct"`
	Host     hostInfo   `json:"host"`
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// pinRuntime fixes the two runtime knobs the numbers depend on, so a
// run means the same on a bigger host or under another environment.
func pinRuntime() {
	runtime.GOMAXPROCS(clients)
	debug.SetGCPercent(100)
}

// calibrate times a fixed SHA-256 + AES-GCM loop that touches no code
// of this repository: it moves only when the host does.
func calibrate() float64 {
	key := make([]byte, 16)
	block, _ := aes.NewCipher(key)
	aead, _ := cipher.NewGCM(block)
	buf := make([]byte, 16<<10)
	out := make([]byte, 0, len(buf)+aead.Overhead())
	nonce := make([]byte, aead.NonceSize())
	const rounds = 400
	var best time.Duration
	for trial := 0; trial < 5; trial++ {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			sum := sha256.Sum256(buf)
			buf[i%len(buf)] ^= sum[0]
			out = aead.Seal(out[:0], nonce, buf, nil)
		}
		if d := time.Since(t0); trial == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / rounds
}

// releaseHeap returns a stopped universe's memory, so that repeating
// set-up for its median does not stack universes into peak_rss_mb.
func releaseHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// newResult starts a run's record with the first calibration reading;
// finish closes it with the second.
func newResult(w *workload, cfg config, traced bool) *result {
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: traced, Metrics: make(map[string]summary), Host: readHost()}
	res.CalibNs[0] = calibrate()
	return res
}

func (r *result) finish() {
	r.CalibNs[1] = calibrate()
	r.DriftPct = 100 * (r.CalibNs[1] - r.CalibNs[0]) / r.CalibNs[0]
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// record adds one repetition's verdicts. Its exact counts must equal
// the first repetition's: a count that differs between repetitions of
// one process cannot repeat between runs either.
func (r *result) record(attempted, failed int, bad []string, counts map[string]string) {
	r.Attempted += attempted
	r.Failed += failed
	if room := maxMismatches - len(r.Mismatches); failed > 0 && room > 0 {
		r.Mismatches = append(r.Mismatches, bad[:min(room, len(bad))]...)
	}
	if r.Fingerprint == nil {
		r.Fingerprint = counts
	} else if diff := diffCounts(r.Fingerprint, counts); diff != "" {
		r.Failed++
		r.Mismatches = append(r.Mismatches, "a later repetition: "+diff)
	}
}

// runWorkload runs one workload once, untraced: the end-to-end metrics.
func runWorkload(w *workload, cfg config) (*result, error) {
	res := newResult(w, cfg, false)
	var err error
	if w.open == nil {
		err = runCampaignWorkload(w, cfg, res)
	} else {
		err = runFixtureWorkload(w, cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// openFixture sets the workload up cfg.setups times and keeps the last
// fixture and session; each round is one setup_s sample.
func openFixture(w *workload, cfg config) (*fixture, session, []float64, error) {
	var (
		f      *fixture
		s      session
		setupS []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			s.close()
			f.u.Stop()
			f, s = nil, nil
			releaseHeap()
		}
		t0 := time.Now()
		var err error
		if f, err = newFixture(cfg.seed, cfg.scale, false); err != nil {
			return nil, nil, nil, err
		}
		if s, err = w.open(f, cfg); err != nil {
			f.u.Stop()
			return nil, nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	return f, s, setupS, nil
}

func runFixtureWorkload(w *workload, cfg config, res *result) error {
	f, s, setupS, err := openFixture(w, cfg)
	if err != nil {
		return err
	}
	defer f.u.Stop()

	var reps []rep
	for len(reps) < w.reps(cfg) {
		var attempted, failed int
		reps = append(reps, timed(func() int {
			attempted, failed = s.rep(len(reps), nil)
			return attempted - failed
		}))
		res.record(attempted, failed, s.mismatches(), s.counts())
	}
	s.close()
	res.Unstable = s.unstable()
	fillEndToEnd(res, reps, setupS, heapLiveMB())
	return nil
}

func runCampaignWorkload(w *workload, cfg config, res *result) error {
	// Set-up is timed apart on the same spec: experiments.Run builds
	// and starts its universe inside the call being measured. Half of
	// the rounds run before the campaign and half after it, 20 s apart:
	// a tenth of a second is at the mercy of whatever else the host is
	// doing, and two windows are rarely both bad.
	var setupS []float64
	setUp := func(rounds int) error {
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			u := internet.Build(internet.Spec{Seed: cfg.seed, Scale: cfg.scale})
			if err := u.Start(internet.StartOptions{Stateful: true, Web: true}); err != nil {
				return err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			u.Stop()
			releaseHeap()
		}
		return nil
	}
	if err := setUp((cfg.setups + 1) / 2); err != nil {
		return err
	}

	var (
		reps []rep
		last *campaignRun
	)
	for len(reps) < w.reps(cfg) {
		if last != nil {
			last.report.Close()
			last = nil
			releaseHeap()
		}
		var (
			c   *campaignRun
			err error
		)
		r := timed(func() int {
			if c, err = runCampaign(cfg, nil, nil); err != nil {
				return 0
			}
			return c.attempted - c.failed
		})
		if err != nil {
			return err
		}
		reps = append(reps, r)
		res.record(c.attempted, c.failed, c.bad, c.counts)
		res.Unstable = c.unstable
		last = c
	}
	// The scanners experiments.Run used are closed; the headline
	// universe is still up, as for the other workloads.
	heap := heapLiveMB()
	last.report.Close()
	releaseHeap()
	if err := setUp(cfg.setups / 2); err != nil {
		return err
	}
	fillEndToEnd(res, reps, setupS, heap)
	return nil
}

// fillEndToEnd fills in the end-to-end metrics. heapMB is read with the
// scanner closed and the universe still up, which is the state
// heap_live_mb is defined in.
func fillEndToEnd(res *result, reps []rep, setupS []float64, heapMB float64) {
	opsPerS, cpuUs, allocs, allocKB := perOp(reps)
	for name, samples := range map[string][]float64{
		"setup_s":         setupS,
		"ops_per_s":       opsPerS,
		"cpu_us_per_op":   cpuUs,
		"allocs_per_op":   allocs,
		"alloc_kb_per_op": allocKB,
		"heap_live_mb":    {heapMB},
		"peak_rss_mb":     {peakRSSMB()},
	} {
		unit, _ := unitOf(endToEnd, name)
		res.Metrics[name] = summarize(unit, samples)
	}
}

// diffCounts names the first count that differs between two
// fingerprints, or "" when they are identical.
func diffCounts(a, b map[string]string) string {
	for k, v := range a {
		if b[k] != v {
			return fmt.Sprintf("count %q is %q, was %q", k, b[k], v)
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			return fmt.Sprintf("count %q is %q, was absent", k, v)
		}
	}
	return ""
}
