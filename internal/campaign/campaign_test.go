package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/zmapquic"
)

// countingWriter tallies bytes and lines; safe because the sink's
// single writer goroutine owns it.
type countingWriter struct {
	bytes int64
	lines int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	w.lines += int64(bytes.Count(p, []byte{'\n'}))
	return len(p), nil
}

// TestGlobalRateBudget is the -race concurrency proof: a coordinator,
// 8 concurrent shard workers, a fast periodic checkpointer, and an
// NDJSON sink all run together while the token bucket enforces one
// campaign-wide probe budget. The observed rate must respect the
// budget within tolerance — the workers share it, they do not each
// get their own.
func TestGlobalRateBudget(t *testing.T) {
	const (
		rate  = 8000
		total = 4096 // 10.4.0.0/20
	)
	var probes atomic.Uint64
	cw := &countingWriter{}
	sink := NewNDJSONSink(cw, 256, false)
	eng, err := New(Config{
		Sweep:   zmapquic.NewSweep(5, []netip.Prefix{netip.MustParsePrefix("10.4.0.0/20")}),
		Shards:  8,
		Workers: 8,
		Rate:    rate,
		Probe: func(context.Context, netip.Addr) error {
			probes.Add(1)
			return nil
		},
		Sink:            sink,
		Journal:         true,
		CheckpointPath:  filepath.Join(t.TempDir(), "state.json"),
		CheckpointEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if got := probes.Load(); got != total {
		t.Fatalf("probes = %d, want %d", got, total)
	}
	if cw.lines != total {
		t.Fatalf("journal lines = %d, want %d", cw.lines, total)
	}
	// The budget is a ceiling: 4096 probes at 8000/s need >=512ms no
	// matter how many workers run (minus the initial burst allowance).
	// The floor check is the one that proves sharing; the generous
	// ceiling only catches a stuck bucket without flaking slow CI.
	minElapsed := time.Duration(float64(total-rate/100) / rate * float64(time.Second))
	if elapsed < minElapsed*3/4 {
		t.Fatalf("campaign finished in %v: 8 workers outran the shared %d/s budget (floor %v)",
			elapsed, rate, minElapsed)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("campaign took %v, rate limiter appears stuck", elapsed)
	}
	observed := float64(total) / elapsed.Seconds()
	if observed > rate*1.35 {
		t.Fatalf("observed rate %.0f/s exceeds budget %d/s beyond tolerance", observed, rate)
	}
}

// slowWriter models a sink that drains slower than probing: each
// flush pays a delay.
type slowWriter struct {
	delay time.Duration
	n     atomic.Int64
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	w.n.Add(int64(len(p)))
	return len(p), nil
}

// TestSinkBackpressureThrottlesProbing: with a bounded queue and a
// slow writer, Write blocks the probe loop instead of buffering
// without bound — the campaign takes at least the sink's drain time,
// and memory stays bounded by the queue.
func TestSinkBackpressureThrottlesProbing(t *testing.T) {
	const total = 256 // 10.5.0.0/24
	w := &slowWriter{delay: time.Millisecond}
	sink := NewNDJSONSink(w, 8, true) // flush per record: every record pays the delay
	eng, err := New(Config{
		Sweep:   zmapquic.NewSweep(5, []netip.Prefix{netip.MustParsePrefix("10.5.0.0/24")}),
		Shards:  4,
		Workers: 4,
		Probe:   func(context.Context, netip.Addr) error { return nil },
		Sink:    sink,
		Journal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// Run returns only once every record is accepted; with an 8-deep
	// queue at 1ms per drain, that is >= (total-queue)*1ms of probing
	// time. Un-throttled probing would finish in microseconds.
	if min := (total - 16) * time.Millisecond / 2; elapsed < min {
		t.Fatalf("campaign finished in %v despite a ~%v sink drain time: backpressure not applied",
			elapsed, total*time.Millisecond)
	}
}

// TestSinkFailureAbortsCampaign: once the writer fails, probing must
// stop with the error instead of continuing unrecorded.
func TestSinkFailureAbortsCampaign(t *testing.T) {
	failAfter := int64(1000)
	fw := &failingWriter{failAt: failAfter}
	sink := NewNDJSONSink(fw, 4, true)
	var probes atomic.Uint64
	eng, err := New(Config{
		Sweep:   zmapquic.NewSweep(5, []netip.Prefix{netip.MustParsePrefix("10.6.0.0/18")}),
		Shards:  4,
		Workers: 4,
		Probe: func(context.Context, netip.Addr) error {
			probes.Add(1)
			return nil
		},
		Sink:    sink,
		Journal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := eng.Run(context.Background())
	sink.Close()
	if runErr == nil {
		t.Fatal("Run succeeded despite sink failure")
	}
	if !strings.Contains(runErr.Error(), "disk full") {
		t.Fatalf("Run error %v does not carry the sink failure", runErr)
	}
	if got, total := probes.Load(), uint64(16384); got >= total {
		t.Fatalf("all %d probes sent despite sink failing after ~%d bytes", got, failAfter)
	}
}

type failingWriter struct {
	written int64
	failAt  int64
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.written += int64(len(p))
	if w.written > w.failAt {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// journalEngine returns a 4-shard engine over 10.0.0.0/24 and the
// address its walk probes at a shard's unit.
func journalEngine(t *testing.T) (*Engine, func(shard int, pos uint64) string) {
	t.Helper()
	sw := zmapquic.NewSweep(1, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")})
	eng, err := New(Config{Sweep: sw, Shards: 4, Probe: func(context.Context, netip.Addr) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	return eng, func(shard int, pos uint64) string {
		a, ok := sw.AddrAtPosition(uint64(shard) + 4*pos)
		if !ok {
			t.Fatalf("shard %d unit %d is past the sweep", shard, pos)
		}
		return a.String()
	}
}

// cursors is the engine's cursor of each shard.
func cursors(e *Engine) map[int]uint64 {
	c := make(map[int]uint64)
	for _, st := range e.shards {
		c[st.id] = st.cursor.Load()
	}
	return c
}

func TestNDJSONSinkOutput(t *testing.T) {
	eng, addrAt := journalEngine(t)
	probed := addrAt(3, 17)
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf, 0, false)
	recs := []Record{
		{Type: recordProbe, Shard: 3, Pos: 17, Addr: probed},
		{Type: RecordHit, Shard: -1, Addr: "10.0.0.1", Versions: []string{"draft-29", "v1"}},
	}
	for _, r := range recs {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"probe","shard":3,"pos":17,"addr":"` + probed + `"}` + "\n" +
		`{"type":"hit","shard":-1,"pos":0,"addr":"10.0.0.1","versions":["draft-29","v1"]}` + "\n"
	if buf.String() != want {
		t.Fatalf("sink output:\n%s\nwant:\n%s", buf.String(), want)
	}
	// The hand-rolled encoding must replay through the stdlib decoder.
	if err := eng.ReplayJournal(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if got := cursors(eng); got[3] != 18 || got[0]+got[1]+got[2] != 0 {
		t.Fatalf("replay = %v, want shard 3 at cursor 18", got)
	}
	if err := sink.Write(Record{}); !errors.Is(err, errSinkClosed) {
		t.Fatalf("write after close = %v, want errSinkClosed", err)
	}
}

func TestReplayJournalSkipsDamage(t *testing.T) {
	eng, addrAt := journalEngine(t)
	in := fmt.Sprintf(`{"type":"probe","shard":0,"pos":4,"addr":"%s"}
{"type":"hit","shard":-1,"pos":0,"addr":"10.0.0.4","versions":["v1"]}
not json at all
{"type":"probe","shard":1,"pos":9,"addr":"%s"}
{"type":"probe","shard":0,"pos":2,"addr":"%s"}
{"type":"probe","shard":0,"pos":`, addrAt(0, 4), addrAt(1, 9), addrAt(0, 2)) // torn final line: process died mid-write
	if err := eng.ReplayJournal(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	if got := cursors(eng); got[0] != 5 || got[1] != 10 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("replay = %v, want {0:5 1:10 2:0 3:0}", got)
	}
}

func TestConfigValidation(t *testing.T) {
	sw := zmapquic.NewSweep(1, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/28")})
	probe := func(context.Context, netip.Addr) error { return nil }
	for name, cfg := range map[string]Config{
		"missing sweep":      {Probe: probe},
		"missing probe":      {Sweep: sw},
		"shard out of range": {Sweep: sw, Probe: probe, Shards: 4, Own: []int{4}},
		"negative shard":     {Sweep: sw, Probe: probe, Shards: 4, Own: []int{-1}},
		"duplicate shard":    {Sweep: sw, Probe: probe, Shards: 4, Own: []int{1, 1}},
		"empty own":          {Sweep: sw, Probe: probe, Shards: 4, Own: []int{}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}

	eng, err := New(Config{Sweep: sw, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err == nil {
		t.Error("second Run on the same engine must fail")
	}
}

// TestMultiProcessShardSplit models two separate processes each
// owning half the shards of one campaign, with separate checkpoint
// files and sinks: together they must cover the sweep exactly once.
func TestMultiProcessShardSplit(t *testing.T) {
	prefixes := []netip.Prefix{netip.MustParsePrefix("10.7.0.0/20")}
	var (
		mu     sync.Mutex
		counts = make(map[netip.Addr]int)
	)
	probe := func(_ context.Context, addr netip.Addr) error {
		mu.Lock()
		counts[addr]++
		mu.Unlock()
		return nil
	}
	var wg sync.WaitGroup
	for proc, own := range [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := New(Config{
				Sweep:          zmapquic.NewSweep(77, prefixes),
				Shards:         8,
				Own:            own,
				Probe:          probe,
				CheckpointPath: filepath.Join(t.TempDir(), "state.json"),
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := eng.Run(context.Background()); err != nil {
				t.Error(err)
			}
		}()
		_ = proc
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(counts) != 4096 {
		t.Fatalf("two half-campaigns covered %d addresses, want 4096", len(counts))
	}
	for addr, c := range counts {
		if c != 1 {
			t.Fatalf("%v probed %d times across the two processes", addr, c)
		}
	}
}

var _ io.Writer = (*countingWriter)(nil)

// stopAfterSink fails its n'th Write: the journal's disk filling up.
type stopAfterSink struct {
	NullSink
	left atomic.Int64
}

func (s *stopAfterSink) Write(Record) error {
	if s.left.Add(-1) == 0 {
		return errors.New("disk full")
	}
	return nil
}

// TestProbeCountExactOnEveryExit: the walkers publish their probe
// counts once per yield, and whatever way a walk ends — kill, cancel,
// a sink failure, completion — what it had not yet published must
// arrive too. Progress().Probes and campaign_probes_total are the
// number of probes that returned nil, exactly, and a resumed engine
// probes what is left and nothing else.
func TestProbeCountExactOnEveryExit(t *testing.T) {
	sweep := func() *zmapquic.Sweep {
		return zmapquic.NewSweep(5, []netip.Prefix{netip.MustParsePrefix("10.9.0.0/16")})
	}
	total := sweep().Total()
	rng := rand.New(rand.NewPCG(22, 0))

	// run walks the sweep from where resume puts it until the stopAt'th
	// probe, which ends it the way how says, and checks both counters
	// against the hook's own count. It returns the engine and its
	// journal.
	run := func(how string, stopAt uint64, resume func(*Engine)) (eng *Engine, journal *bytes.Buffer, calls uint64) {
		k := newKillSwitch()
		defer k.cancel()
		var called, succeeded atomic.Uint64
		var sink Sink = &stopAfterSink{}
		journal = new(bytes.Buffer)
		if how == "sink" {
			sink.(*stopAfterSink).left.Store(int64(stopAt))
		} else {
			sink = k.sink(NewNDJSONSink(journal, 0, false))
		}
		eng, err := New(Config{
			Sweep:   sweep(),
			Shards:  4,
			Workers: 4,
			Sink:    sink,
			Journal: true,
			Probe: k.probe(func(_ context.Context, addr netip.Addr) error {
				if called.Add(1) == stopAt {
					switch how {
					case "kill":
						k.kill()
					case "cancel":
						k.cancel()
					}
				}
				if addr.As4()[3]%5 == 0 {
					return errors.New("probe failed") // counted elsewhere
				}
				succeeded.Add(1)
				return nil
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		k.arm(eng)
		if resume != nil {
			resume(eng)
		}
		before := mProbes.Value()
		err = eng.Run(k.ctx)
		if cerr := sink.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		switch {
		case (how == "kill" || how == "cancel") && !errors.Is(err, context.Canceled),
			how == "sink" && (err == nil || !strings.Contains(err.Error(), "disk full")),
			how == "finish" && err != nil:
			t.Fatalf("%s at probe %d: Run returned %v", how, stopAt, err)
		}
		if got, want := eng.Progress().Probes, succeeded.Load(); got != want {
			t.Errorf("%s at probe %d: Progress().Probes = %d, %d probes returned nil", how, stopAt, got, want)
		}
		if got, want := mProbes.Value()-before, succeeded.Load(); got != want {
			t.Errorf("%s at probe %d: campaign_probes_total moved by %d, %d probes returned nil", how, stopAt, got, want)
		}
		return eng, journal, called.Load()
	}

	for round := 0; round < 50; round++ {
		how := []string{"kill", "cancel", "sink"}[round%3]
		stopAt := 1 + rng.Uint64N(total-1)
		dead, journal, first := run(how, stopAt, nil)
		if how == "sink" {
			// The unit whose record was refused is probed again by a
			// resume: at-least-once, so there is no total to hold.
			continue
		}
		// A cancelled engine's cursors are exactly what it probed, so
		// the resume starts from them. A killed one's run past the units
		// its dead probe skipped; what it leaves is its journal.
		resume := func(e *Engine) {
			for id, cur := range cursors(dead) {
				e.byID[id].cursor.Store(cur)
			}
		}
		if how == "kill" {
			resume = func(e *Engine) {
				if err := e.ReplayJournal(journal); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, _, second := run("finish", 0, resume)
		if first+second != total {
			t.Errorf("%s at probe %d: %d probes before and %d after the resume, for a sweep of %d",
				how, stopAt, first, second, total)
		}
	}
}

// killSwitch models SIGKILL for the resume tests through the seams the
// engine has. From kill on, the probe it wraps sends nothing, the sink
// drops the journal records of the units begun after the kill, the
// state file takes no write, and the run's context is cancelled so that
// Run returns. What a resume reads is what a killed process leaves
// behind: the state file as of the kill, and the journal of every unit
// that probed.
type killSwitch struct {
	ctx    context.Context
	cancel context.CancelFunc
	killed atomic.Bool
	unsent sync.Map // the addresses of units begun after the kill
}

// errDead is what a probe returns once the process is dead.
var errDead = errors.New("the process is dead")

func newKillSwitch() *killSwitch {
	k := &killSwitch{}
	k.ctx, k.cancel = context.WithCancel(context.Background())
	return k
}

func (k *killSwitch) kill() {
	k.killed.Store(true)
	k.cancel()
}

// probe is p until the kill.
func (k *killSwitch) probe(p ProbeFunc) ProbeFunc {
	return func(ctx context.Context, addr netip.Addr) error {
		if k.killed.Load() {
			k.unsent.Store(addr.String(), true)
			return errDead
		}
		return p(ctx, addr)
	}
}

// sink is s less the probe records of units that sent nothing. A unit
// calls its probe before it journals, so the record of an unsent one
// is always known by the time it arrives.
func (k *killSwitch) sink(s Sink) Sink { return killedSink{s, k} }

type killedSink struct {
	Sink
	k *killSwitch
}

func (s killedSink) Write(rec Record) error {
	if _, unsent := s.k.unsent.Load(rec.Addr); unsent && rec.Type == recordProbe {
		return nil
	}
	return s.Sink.Write(rec)
}

// arm makes e's state-file writer drop every write after the kill.
func (k *killSwitch) arm(e *Engine) {
	write := e.writeFile
	e.writeFile = func(path string, data []byte) error {
		if k.killed.Load() {
			return nil
		}
		return write(path, data)
	}
}
