package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	// Same name returns the same counter.
	if r.Counter("test_events_total").Value() != 42 {
		t.Error("re-registration did not return the existing counter")
	}

	g := r.Gauge("test_active")
	g.Set(7)
	g.Add(-3)
	if got := g.value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}

	snap := r.Snapshot()
	if snap.Counters["test_events_total"] != 42 || snap.Gauges["test_active"] != 4 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_x")
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var v *CounterVec
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	v.With("x").Inc()
	if c.Value() != 0 || g.value() != 0 {
		t.Error("nil metrics returned non-zero values")
	}
}

// fromGoroutines runs f on n goroutines that all exist at once, so that
// their stacks, and with them their cells, differ.
func fromGoroutines(n int, f func()) {
	var start, done sync.WaitGroup
	start.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			start.Done()
			start.Wait()
			f()
		}()
	}
	done.Wait()
}

// TestSetEnabled: the switch freezes every cell, not just the caller's.
func TestSetEnabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_switch_total")
	h := r.Histogram("test_switch_ms", []float64{1})
	update := func() {
		c.Inc()
		h.Observe(1)
	}
	SetEnabled(false)
	fromGoroutines(64, update)
	SetEnabled(true)
	if hs := h.snapshot(); c.Value() != 0 || hs.Count != 0 || hs.Sum != 0 {
		t.Errorf("counter = %d, histogram count = %d, sum = %v: updates while disabled must be dropped", c.Value(), hs.Count, hs.Sum)
	}
	update()
	if hs := h.snapshot(); c.Value() != 1 || hs.Count != 1 {
		t.Errorf("counter = %d, histogram count = %d after one update, want 1 and 1", c.Value(), hs.Count)
	}
}

// touchedCells counts the cells of c that hold anything.
func touchedCells(c *Counter) int {
	n := 0
	for i := range c.cells {
		if c.cells[i].n.Load() != 0 {
			n++
		}
	}
	return n
}

// TestCellLayout: every cell starts a cache line of its own, for each
// way a metric comes to be allocated. The allocator aligns a
// pointer-free object whose size is a multiple of 64 to 64 bytes, which
// is why a vec child holds its Counter by pointer and a Histogram's
// cells are one slab of words.
func TestCellLayout(t *testing.T) {
	r := NewRegistry()
	counters := map[string]*Counter{
		"registry counter": r.Counter("test_layout_total"),
		"vec child":        r.CounterVec("test_layout_vec_total", "k").With("v"),
	}
	for name, c := range counters {
		for i := range c.cells {
			addr := uintptr(unsafe.Pointer(&c.cells[i]))
			if addr%cacheLine != 0 {
				t.Errorf("%s: cell %d at %#x is not on a cache-line boundary", name, i, addr)
			}
			if i > 0 && addr-uintptr(unsafe.Pointer(&c.cells[i-1])) != cacheLine {
				t.Errorf("%s: cell %d is not %d bytes after cell %d", name, i, cacheLine, i-1)
			}
		}
	}
	for _, buckets := range [][]float64{{1}, {1, 2, 4, 8, 16, 32, 64}, LatencyBucketsMs()} {
		h := NewRegistry().Histogram("test_layout_ms", buckets)
		if h.stride*8%cacheLine != 0 || h.stride < histBuckets+len(buckets)+1 || len(h.cells) != NumCells*h.stride {
			t.Errorf("%d buckets: stride %d words, %d words in all", len(buckets)+1, h.stride, len(h.cells))
		}
		if addr := uintptr(unsafe.Pointer(&h.cells[0])); addr%cacheLine != 0 {
			t.Errorf("%d buckets: cells start at %#x, not on a cache-line boundary", len(buckets)+1, addr)
		}
	}
}

// TestCellAffinity: one goroutine at one call site stays on one cell,
// and many goroutines spread over many. The second bound is loose on
// purpose: it fails for "always cell 0" and cannot flake.
func TestCellAffinity(t *testing.T) {
	// A collection may move (shrink) this goroutine's stack between two
	// Adds, and with it the cell.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := NewRegistry()
	one := r.Counter("test_affinity_one_total")
	for i := 0; i < 1000; i++ {
		one.Add(1)
	}
	if n := touchedCells(one); n != 1 || one.Value() != 1000 {
		t.Errorf("1,000 Adds from one goroutine touched %d cells (value %d), want 1", n, one.Value())
	}
	many := r.Counter("test_affinity_many_total")
	fromGoroutines(64, func() { many.Add(1) })
	if n := touchedCells(many); n < NumCells/2 || many.Value() != 64 {
		t.Errorf("64 goroutines touched %d of %d cells (value %d), want at least %d", n, NumCells, many.Value(), NumCells/2)
	}
}

// TestObserveIgnoresNonFinite: one NaN used to turn the sum into NaN for
// good, after which /metricz answered 200 with an empty body.
func TestObserveIgnoresNonFinite(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_nan_ms", []float64{1, 10})
	for _, v := range []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), 2} {
		h.Observe(v)
	}
	if hs := r.Snapshot().Histograms["test_nan_ms"]; hs.Count != 2 || hs.Sum != 3 {
		t.Errorf("count = %d, sum = %v, want 2 and 3", hs.Count, hs.Sum)
	}
	get := func() (int, string) {
		rec := httptest.NewRecorder()
		r.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricz", nil))
		return rec.Code, rec.Body.String()
	}
	code, body := get()
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); code != 200 || err != nil {
		t.Fatalf("/metricz: status %d, decode error %v, body %q", code, err, body)
	}
	if snap.Histograms["test_nan_ms"].Count != 2 {
		t.Errorf("/metricz histogram = %+v", snap.Histograms["test_nan_ms"])
	}
	// Finite observations can still overflow the sum; that must be an
	// error the client sees.
	h.Observe(math.MaxFloat64)
	h.Observe(math.MaxFloat64)
	if code, body := get(); code != 500 || !strings.Contains(body, "unsupported value") {
		t.Errorf("/metricz with an infinite sum: status %d, body %q, want 500 and the encoder's error", code, body)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 5, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["test_latency_ms"]
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	wantCounts := []uint64{2, 2, 1, 1}
	for i, w := range wantCounts {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, snap.Counts[i], w)
		}
	}
	if math.Abs(snap.Sum-561.2) > 1e-9 {
		t.Errorf("sum = %v, want 561.2", snap.Sum)
	}
	// Median falls in the (1,10] bucket.
	if q := snap.Quantile(0.5); q <= 1 || q > 10 {
		t.Errorf("p50 = %v, want in (1,10]", q)
	}
	// p99 lands in +Inf and clamps to the largest finite bound.
	if q := snap.Quantile(0.99); q != 100 {
		t.Errorf("p99 = %v, want clamp to 100", q)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
}

func TestBoundaryValueLandsInLeBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_le_ms", []float64{1, 2})
	h.Observe(1) // exactly on a bound: le="1" bucket owns it
	snap := r.Snapshot().Histograms["test_le_ms"]
	if snap.Counts[0] != 1 {
		t.Errorf("counts = %v, want observation in first bucket", snap.Counts)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_vn_total", "version")
	v.With("draft-29").Add(2)
	v.With("v1").Inc()
	v.With("draft-29").Inc()
	snap := r.Snapshot()
	if snap.Counters[`test_vn_total{version="draft-29"}`] != 3 {
		t.Errorf("snapshot = %v", snap.Counters)
	}
	if snap.Counters[`test_vn_total{version="v1"}`] != 1 {
		t.Errorf("snapshot = %v", snap.Counters)
	}
}

// TestConcurrentUpdates hammers every metric kind from many
// goroutines; run under -race this is the registry's thread-safety
// regression test, and the totals prove no update was lost: the cells
// a goroutine lands on depend on where its stack lies, the sums must
// not, at any -cpu.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total")
	g := r.Gauge("test_conc_gauge")
	h := r.Histogram("test_conc_ms", []float64{1, 10, 100})
	v := r.CounterVec("test_conc_vec_total", "worker")

	const workers = 8
	const perWorker = 100000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w%4))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
				v.With(name).Inc()
				if i%10000 == 0 {
					_ = r.Snapshot() // readers race with writers
				}
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	const total = workers * perWorker
	if snap.Counters["test_conc_total"] != total || c.Value() != total {
		t.Errorf("counter = %d (Value %d), want %d", snap.Counters["test_conc_total"], c.Value(), total)
	}
	if snap.Gauges["test_conc_gauge"] != total {
		t.Errorf("gauge = %d, want %d", snap.Gauges["test_conc_gauge"], total)
	}
	hs := snap.Histograms["test_conc_ms"]
	if hs.Count != total {
		t.Errorf("histogram count = %d, want %d", hs.Count, total)
	}
	var bucketSum uint64
	for _, n := range hs.Counts {
		bucketSum += n
	}
	if bucketSum != total {
		t.Errorf("bucket sum = %d, want %d", bucketSum, total)
	}
	// Whole numbers this small add exactly in a float64, in any order.
	if want := float64(workers * (perWorker / 200) * (199 * 200 / 2)); hs.Sum != want {
		t.Errorf("histogram sum = %v, want %v", hs.Sum, want)
	}
	var vecSum uint64
	for name, val := range snap.Counters {
		if strings.HasPrefix(name, "test_conc_vec_total{") {
			vecSum += val
		}
	}
	if vecSum != total {
		t.Errorf("vec sum = %d, want %d", vecSum, total)
	}
}

// TestAttachExactlyOnce: while owners attach, count in fields of their
// own and detach, snapshots taken from several goroutines at once see
// every event once: each reader's sequence of totals never falls, and
// once every owner has detached the total is exact, folded into the
// counters, and no owner's level is left in a gauge.
func TestAttachExactlyOnce(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_owned_total")
	vec := r.CounterVec("test_owned_vec_total", "owner").With("all")
	g := r.Gauge("test_owned_open")
	const owners, rounds, events = 8, 5, 20
	const total = owners * rounds * events

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 3 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last, lastVec uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Snapshot()
				got, gotVec := s.Counters["test_owned_total"], s.Counters[`test_owned_vec_total{owner="all"}`]
				if got < last || gotVec < lastVec {
					t.Errorf("snapshot went back: %d after %d, vec %d after %d", got, last, gotVec, lastVec)
					return
				}
				if open := s.Gauges["test_owned_open"]; open < 0 || open > owners {
					t.Errorf("open owners = %d, want 0..%d", open, owners)
					return
				}
				last, lastVec = got, gotVec
			}
		}()
	}

	var wg sync.WaitGroup
	for range owners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				var n atomic.Uint64
				detach := r.Attach(func(rd *Reading) {
					rd.Count(c, n.Load())
					rd.Count(vec, n.Load())
					rd.Level(g, 1)
				})
				for range events {
					n.Add(1)
					runtime.Gosched()
				}
				detach()
				detach() // the second does nothing
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	s := r.Snapshot()
	if got := s.Counters["test_owned_total"]; got != total || c.Value() != total {
		t.Errorf("total = %d (folded %d), want %d", got, c.Value(), total)
	}
	if got := s.Counters[`test_owned_vec_total{owner="all"}`]; got != total {
		t.Errorf("vec total = %d, want %d", got, total)
	}
	if open := s.Gauges["test_owned_open"]; open != 0 {
		t.Errorf("open owners = %d after every detach, want 0", open)
	}
	if len(r.owners) != 0 {
		t.Errorf("%d owners still attached", len(r.owners))
	}
}

// TestDetachWhileDisabled: a fold is not an update the switch drops.
// The events were counted when they happened; dropping them at detach
// would make the next snapshot smaller than the last.
func TestDetachWhileDisabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_fold_total")
	detach := r.Attach(func(rd *Reading) { rd.Count(c, 3) })
	before := r.Snapshot().Counters["test_fold_total"]
	SetEnabled(false)
	detach()
	SetEnabled(true)
	if after := r.Snapshot().Counters["test_fold_total"]; before != 3 || after != 3 {
		t.Errorf("snapshot %d before the detach and %d after it, want 3 and 3", before, after)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_probes_total").Add(5)
	r.Gauge("test_pool").Set(4)
	r.Histogram("test_rtt_ms", []float64{1, 10}).Observe(3)
	r.CounterVec("test_vn_total", "version").With(`dr"aft`).Inc()

	var b strings.Builder
	if err := r.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_probes_total counter\ntest_probes_total 5\n",
		"# TYPE test_pool gauge\ntest_pool 4\n",
		`test_rtt_ms_bucket{le="1"} 0`,
		`test_rtt_ms_bucket{le="10"} 1`,
		`test_rtt_ms_bucket{le="+Inf"} 1`,
		"test_rtt_ms_sum 3\n",
		"test_rtt_ms_count 1\n",
		`test_vn_total{version="dr\"aft"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
}

func TestHTTPExporter(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_http_total").Add(9)
	srv, addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "test_http_total 9") {
		t.Errorf("/metrics = %q", out)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metricz")), &snap); err != nil {
		t.Fatalf("/metricz is not JSON: %v", err)
	}
	if snap.Counters["test_http_total"] != 9 {
		t.Errorf("/metricz counters = %v", snap.Counters)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("quic_x_total")
	r.Gauge("core_y")
	r.Histogram("core_z_ms", nil)
	fams := r.Snapshot().Families()
	want := []string{"core", "quic"}
	if len(fams) != len(want) || fams[0] != want[0] || fams[1] != want[1] {
		t.Errorf("families = %v, want %v", fams, want)
	}
}

func TestCheckMetricName(t *testing.T) {
	for _, ok := range []string{"a", "quic_dials_total", "ns:sub_total", "_x", "A9_b"} {
		if err := checkMetricName(ok); err != nil {
			t.Errorf("checkMetricName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "9x", "a-b", "a b", "é", "a\x00b"} {
		if err := checkMetricName(bad); err == nil {
			t.Errorf("checkMetricName(%q) = nil, want error", bad)
		}
	}
	for _, bad := range []string{"", "__reserved", "9x", "a:b"} {
		if err := checkLabelName(bad); err == nil {
			t.Errorf("checkLabelName(%q) = nil, want error", bad)
		}
	}
}
