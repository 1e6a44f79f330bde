// Package telemetry is the repo's unified observability layer: a
// lock-cheap registry of named counters, gauges and fixed-bucket
// histograms (with label support for per-version / per-provider
// breakdowns), an HTTP exporter serving Prometheus text, JSON and
// pprof, and a qlog-inspired per-connection tracer.
//
// The paper's headline results — handshake success rates, version
// negotiation behaviour, Alt-Svc yield per provider — are all
// aggregations over millions of protocol events. Every scanning layer
// (quic, core, zmapquic, simnet, dnsclient, tlsscan) resolves its
// metrics here at package init, so one Snapshot covers the whole
// pipeline and one -metrics-addr flag exports it live. An owner that
// counts in fields of its own attaches a read of them (Registry.Attach).
//
// Design notes:
//
//   - A Counter is not one word but sixteen cells, each alone on a
//     64-byte cache line (1 KB in all). An update is one atomic load of
//     the global enable switch and one atomic add to the cell picked by
//     the address of a local variable, that is by where the calling
//     goroutine's stack lies (CellIndex): a long-lived worker keeps
//     adding to a line only its core writes, where one shared word
//     would travel between the cores on every update. No locks, no map
//     lookups, and nothing is sampled or deferred: Value and Snapshot
//     sum the cells (sixteen loads per metric), which is exact once the
//     writers are done. Producers resolve their metrics once, at
//     package init, and hold the returned pointers.
//   - Labelled families (CounterVec) take one RLock'd map lookup per
//     With call; hot paths should cache the child counter instead.
//   - Histograms have fixed bucket bounds chosen at registration, the
//     Prometheus model, and the same sixteen cells, each with its own
//     bucket counts and sum on lines of its own: observation cost is
//     a binary search over a small slice plus one atomic add and one
//     compare-and-swap inside one cell.
//   - A Gauge stays one word: a Set cannot be split over cells.
//
// The package is stdlib-only.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// enabled is the global kill switch used by overhead ablations and
// benchmarks (see BenchmarkTelemetryOverhead at the repo root). It
// defaults to on; disabling turns every metric update into an atomic
// load plus a branch.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled flips metric collection globally. Intended for overhead
// benchmarks and ablations, not production use.
func SetEnabled(on bool) { enabled.Store(on) }

// checkMetricName validates a metric family name against the
// Prometheus data model: [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("telemetry: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("telemetry: invalid metric name %q (byte %d)", name, i)
		}
	}
	return nil
}

// checkLabelName validates a label key: [a-zA-Z_][a-zA-Z0-9_]*,
// and rejects the reserved double-underscore prefix.
func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("telemetry: empty label name")
	}
	if strings.HasPrefix(name, "__") {
		return fmt.Errorf("telemetry: reserved label name %q", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("telemetry: invalid label name %q (byte %d)", name, i)
		}
	}
	return nil
}

// NumCells is how many cells a Counter or Histogram spreads its updates
// over, and cacheLine the size each cell is padded to, so that no two
// share a line. Both are constants of the layout, not settings: sixteen
// cells keep two to four busy goroutines apart nearly always and a
// Counter at 1 KB. An owner that counts in fields of its own may split
// them the same way (simnet's traffic rows and its lock).
const (
	NumCells  = 16
	cacheLine = 64
)

// CellIndex picks the calling goroutine's cell, in [0, NumCells), from
// the address of a local variable, which lies on that goroutine's
// stack. Stacks are 2 KB-aligned blocks of at least 2 KB, so the bits
// from 11 up tell goroutines apart and stay put for one goroutine at
// one call site; four 4-bit groups of them are folded together so that
// neighbouring stacks of any size differ. Nothing depends on the choice
// but speed: a stack that moves, or two goroutines that collide, still
// add to a cell of the same metric. A caller that must come back to the
// cell it picked (a lock's unlock) keeps the index, not the call.
func CellIndex() int {
	var local byte
	p := uintptr(unsafe.Pointer(&local))
	return int((p>>11 ^ p>>15 ^ p>>19 ^ p>>23) % NumCells)
}

// Counter is a monotonically increasing uint64, kept as NumCells
// partial counts. The zero value is ready to use; for its cells to be
// lines it must be an allocation of its own, which the allocator starts
// on a cache-line boundary (a pointer-free object of n*64 bytes).
type Counter struct {
	cells [NumCells]struct {
		n atomic.Uint64
		_ [cacheLine - 8]byte
	}
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	// Two ifs, not one ||: inlined, the compiler keeps the || as a flag,
	// forgets that c is not nil and guards c.cells with a load from *c —
	// cell 0's line, read on every Add from every goroutine.
	if c == nil {
		return
	}
	if !enabled.Load() {
		return
	}
	c.cells[CellIndex()].n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the count added through this handle, without the
// attached owners' counts a Snapshot adds.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.v.Add(d)
}

// value returns the current value.
func (g *Gauge) value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram in the Prometheus style:
// bucket i counts observations <= bounds[i], with an implicit +Inf
// bucket at the end. Observation is lock-free. Like a Counter it is
// kept as NumCells partial histograms, merged by snapshot. A cell is
// stride words of one slab, a whole number of cache lines: the sum
// (math.Float64bits, updated by CAS), then the len(bounds)+1 bucket
// counts, so the low buckets share the sum's line. The total count is
// not kept: it is the buckets' sum. The struct itself is only read
// after registration.
type Histogram struct {
	bounds []float64
	cells  []atomic.Uint64 // NumCells * stride
	stride int
}

// Word offsets inside a Histogram cell.
const (
	histSum     = 0
	histBuckets = 1
)

// Observe records one value. A value that is not finite is ignored: a
// single NaN would turn the sum into NaN for good, and JSON cannot
// carry one.
func (h *Histogram) Observe(v float64) {
	if h == nil || !enabled.Load() || v-v != 0 { // NaN and ±Inf: v-v is NaN
		return
	}
	cell := h.cells[CellIndex()*h.stride:][:h.stride]
	cell[histBuckets+sort.SearchFloat64s(h.bounds, v)].Add(1)
	sum := &cell[histSum]
	for {
		old := sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// LatencyBucketsMs is the default bucket layout for millisecond
// latency histograms: roughly logarithmic from sub-millisecond RTTs
// on loopback/simnet up to multi-second scan timeouts.
func LatencyBucketsMs() []float64 {
	return []float64{0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
}

// Registry holds named metrics. The zero value is not usable; use
// NewRegistry or the process-wide Default registry. Registration
// takes a lock and validates names (panicking on programmer error:
// invalid names or kind collisions); updates through the returned
// handles never touch the registry again.
type Registry struct {
	mu      sync.RWMutex   // a Snapshot holds it across metrics and owners
	metrics map[string]any // *Counter, *Gauge, *Histogram or *CounterVec
	owners  map[*func(*Reading)]struct{}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any), owners: make(map[*func(*Reading)]struct{})}
}

// Reading is what attached owners report to a Snapshot: counts to add
// to counters, and levels, what an owner holds now, to add to gauges.
type Reading struct {
	counts map[*Counter]uint64
	levels map[*Gauge]int64
}

// Count adds n to c in this reading. A detaching owner's reading has no
// maps and folds n into c itself.
func (rd *Reading) Count(c *Counter, n uint64) {
	if rd.counts == nil {
		// Past the enable switch: the events were counted when they
		// happened, and the next Snapshot must not lose them.
		c.cells[CellIndex()].n.Add(n)
		return
	}
	rd.counts[c] += n
}

// Level adds v to g in this reading; a detaching owner's levels lapse.
func (rd *Reading) Level(g *Gauge, v int64) {
	if rd.levels != nil {
		rd.levels[g] += v
	}
}

// Attach makes an owner's fields the registry's count of their events:
// every Snapshot adds what read reports. The returned detach, for when
// the owner has stopped counting, folds its last counts into their
// counters and forgets it; later calls do nothing.
// A Snapshot never overlaps a detach, so it sees each event exactly
// once. read must not call the registry.
func (r *Registry) Attach(read func(*Reading)) (detach func()) {
	key := &read
	r.mu.Lock()
	r.owners[key] = struct{}{}
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.owners[key]; ok {
			delete(r.owners, key)
			read(&Reading{})
		}
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every producer package
// registers into.
func Default() *Registry { return defaultRegistry }

// lookup returns the metric of kind M registered under name. On first
// use it creates it and, under the registry's lock, lets init set it up
// before anyone else can see it. A name taken by another kind panics.
func lookup[M any](r *Registry, name string, init func(*M)) *M {
	if err := checkMetricName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name].(*M)
	if !ok {
		if other, taken := r.metrics[name]; taken {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %T, was %T", name, m, other))
		}
		m = new(M)
		init(m)
		r.metrics[name] = m
	}
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return lookup(r, name, func(*Counter) {}) }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return lookup(r, name, func(*Gauge) {}) }

// Histogram returns the named histogram, creating it on first use
// with the given bucket upper bounds (must be sorted ascending; an
// +Inf bucket is implicit). Buckets passed on later calls for an
// existing histogram are ignored.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	return lookup(r, name, func(h *Histogram) {
		if len(buckets) == 0 {
			buckets = LatencyBucketsMs()
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not sorted", name))
		}
		h.bounds = append([]float64(nil), buckets...)
		// The slab is pointer-free and a multiple of 64 bytes long, so
		// the allocator starts it, and with it every cell, on a line.
		const perLine = cacheLine / 8
		h.stride = (histBuckets + len(buckets) + 1 + perLine - 1) / perLine * perLine
		h.cells = make([]atomic.Uint64, NumCells*h.stride)
	})
}

// CounterVec is a family of counters split by label values.
type CounterVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*vecChild
}

// vecChild holds its counter by pointer: the allocator starts a
// pointer-free kilobyte on a cache line, but puts a type header in
// front of one that, like this struct, contains pointers.
type vecChild struct {
	values []string
	c      *Counter
}

// CounterVec returns the named counter family with the given label
// keys, creating it on first use. Label keys passed on later calls
// must match.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	for _, l := range labels {
		if err := checkLabelName(l); err != nil {
			panic(err)
		}
	}
	cv := lookup(r, name, func(cv *CounterVec) {
		if len(labels) == 0 {
			panic(fmt.Sprintf("telemetry: counter vec %q needs at least one label", name))
		}
		cv.labels = append([]string(nil), labels...)
		cv.children = make(map[string]*vecChild)
	})
	if len(cv.labels) != len(labels) { // labels never change once set
		panic(fmt.Sprintf("telemetry: counter vec %q re-registered with %d labels, was %d",
			name, len(labels), len(cv.labels)))
	}
	return cv
}

// With returns the child counter for the given label values (one per
// label key, in registration order), creating it on first use. The
// returned counter may be cached by hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: counter vec wants %d label values, got %d",
			len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	ch, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return ch.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch, ok = v.children[key]; !ok {
		ch = &vecChild{values: append([]string(nil), values...), c: &Counter{}}
		v.children[key] = ch
	}
	return ch.c
}

// Snapshot is a point-in-time copy of every metric in a registry,
// keyed by metric name (labelled children use the Prometheus series
// syntax name{key="value"}). It is what tests and the JSON exporter
// consume.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is one histogram's state: per-bucket counts (the
// last entry is the +Inf bucket), total count and sum.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the owning bucket, the standard Prometheus
// histogram_quantile estimator. It returns 0 for an empty histogram;
// quantiles landing in the +Inf bucket clamp to the largest finite
// bound.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, n := range h.Counts {
		cum += n
		if float64(cum) >= rank && n > 0 {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			within := rank - float64(cum-n)
			return lo + (hi-lo)*(within/float64(n))
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// seriesName renders name{k1="v1",k2="v2"}.
func seriesName(name string, labels, values []string) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Snapshot copies every metric's value, attached owners' counts included.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	live := Reading{make(map[*Counter]uint64), make(map[*Gauge]int64)}
	for read := range r.owners {
		(*read)(&live)
	}
	for n, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			s.Counters[n] = m.Value() + live.counts[m]
		case *Gauge:
			s.Gauges[n] = m.value() + live.levels[m]
		case *Histogram:
			s.Histograms[n] = m.snapshot()
		case *CounterVec:
			m.mu.RLock()
			for _, ch := range m.children {
				s.Counters[seriesName(n, m.labels, ch.values)] = ch.c.Value() + live.counts[ch.c]
			}
			m.mu.RUnlock()
		}
	}
	return s
}

func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := 0; i < len(h.cells); i += h.stride {
		cell := h.cells[i : i+h.stride]
		out.Sum += math.Float64frombits(cell[histSum].Load())
		for j := range out.Counts {
			n := cell[histBuckets+j].Load()
			out.Counts[j] += n
			out.Count += n
		}
	}
	return out
}
