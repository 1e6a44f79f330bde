package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quicscan/internal/zmapquic"
)

// torturePrefixes includes a top-of-space prefix so resume arithmetic
// crosses the addrAt wrap guard too.
var torturePrefixes = []netip.Prefix{
	netip.MustParsePrefix("10.2.0.0/18"),
	netip.MustParsePrefix("255.255.255.192/26"),
}

// TestKillResumeTorture is the SIGKILL torture loop: a campaign over
// ~16k addresses is killed at randomized points — sometimes while the
// checkpointer is mid-write, via an injected failure that tears the
// state file at its final name — then resumed from whatever survived
// on disk (checkpoint plus NDJSON journal). Over every kill/resume
// cycle, each address must be probed exactly once, and a torn
// checkpoint must be detected and rejected with a typed error, never
// trusted.
func TestKillResumeTorture(t *testing.T) {
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "state.json")
	journalPath := filepath.Join(dir, "journal.ndjson")

	var (
		mu     sync.Mutex
		counts = make(map[netip.Addr]int)
	)
	rng := rand.New(rand.NewPCG(99, 0))

	sweepFor := func() *zmapquic.Sweep { return zmapquic.NewSweep(21, torturePrefixes) }
	total := sweepFor().Total()

	var (
		attempts     int
		sawTornCkpt  bool
		tearNextCkpt bool
		tornOnDisk   bool // a killed run left an injected torn state file
		lastErr      error
	)
	for attempts = 0; attempts < 40; attempts++ {
		// Open the journal in append mode: the stream of a killed
		// process persists, a resumed one extends it.
		jf, err := os.OpenFile(journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		sink := NewNDJSONSink(jf, 64, true)

		var probed atomic.Uint64
		killAt := uint64(1) + uint64(rng.IntN(int(total/4)))
		finalRun := attempts >= 6 && rng.IntN(3) == 0
		if finalRun {
			killAt = total + 1 // out of reach: run to completion
		}

		k := newKillSwitch()
		eng, err := New(Config{
			Sweep:   sweepFor(),
			Shards:  8,
			Workers: 4,
			Probe: k.probe(func(_ context.Context, addr netip.Addr) error {
				mu.Lock()
				counts[addr]++
				mu.Unlock()
				if probed.Add(1) == killAt {
					k.kill()
				}
				return nil
			}),
			Sink:            k.sink(sink),
			Journal:         true,
			CheckpointPath:  ckptPath,
			CheckpointEvery: 1, // nanosecond interval: checkpoint as fast as possible
		})
		if err != nil {
			t.Fatal(err)
		}

		// A third of the runs tear the checkpoint writer: the injected
		// failure leaves a truncated file at the final name, the torn
		// write an atomic rename normally rules out — modelling death
		// mid-write of a non-atomic writer plus disk damage.
		// Never tear a to-completion run: its final checkpoint write is
		// allowed to fail the campaign, which is not the path under test.
		tearThisRun := (attempts == 1 || tearNextCkpt) && !finalRun
		tearNextCkpt = rng.IntN(3) == 0
		var tornWrote atomic.Bool
		if tearThisRun {
			eng.writeFile = func(path string, data []byte) error {
				tornWrote.Store(true)
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					return err
				}
				return fmt.Errorf("injected mid-checkpoint failure")
			}
		}
		k.arm(eng)

		// Resume from the durable state of the previous dead run.
		if attempts > 0 {
			cp, err := LoadCheckpoint(ckptPath)
			switch {
			case errors.Is(err, os.ErrNotExist):
				// Died before the first checkpoint: journal-only resume.
			case errors.Is(err, errCorruptCheckpoint):
				sawTornCkpt = true // detected and rejected; fall back to journal
			case err != nil:
				t.Fatalf("attempt %d: unexpected checkpoint error: %v", attempts, err)
			default:
				if err := eng.Restore(cp); err != nil {
					t.Fatal(err)
				}
			}
			rf, err := os.Open(journalPath)
			if err != nil {
				t.Fatal(err)
			}
			err = eng.ReplayJournal(rf)
			rf.Close()
			if err != nil {
				t.Fatal(err)
			}
		}

		lastErr = eng.Run(k.ctx)
		k.cancel()
		if cerr := sink.Close(); cerr != nil {
			t.Fatalf("attempt %d: sink close: %v", attempts, cerr)
		}
		jf.Close()

		if lastErr == nil {
			break
		}
		// A torn run may finish its walk and then die on the final
		// checkpoint write — that injected failure is also a valid
		// "process died" outcome; resume from the wreckage as usual.
		if !errors.Is(lastErr, context.Canceled) &&
			!strings.Contains(lastErr.Error(), "injected mid-checkpoint failure") {
			t.Fatalf("attempt %d: Run = %v, want nil or the kill's context.Canceled", attempts, lastErr)
		}
		if tornWrote.Load() {
			tornOnDisk = true // the torn write is the newest state file
		}
	}
	if lastErr != nil {
		t.Fatalf("campaign never completed in %d attempts (last: %v)", attempts, lastErr)
	}

	// Exactly-once over the union of all runs: no gaps, no duplicates.
	mu.Lock()
	defer mu.Unlock()
	if uint64(len(counts)) != total {
		t.Fatalf("probed %d distinct addresses over %d runs, want %d", len(counts), attempts+1, total)
	}
	var dups int
	for addr, c := range counts {
		if c != 1 {
			dups++
			if dups <= 5 {
				t.Errorf("%v probed %d times", addr, c)
			}
		}
	}
	if dups > 0 {
		t.Fatalf("%d addresses probed more than once", dups)
	}
	if tornOnDisk && !sawTornCkpt {
		t.Error("a killed run left a torn checkpoint on disk but no resume detected it")
	}
	if !tornOnDisk {
		t.Log("no torn checkpoint landed on disk this run (kills outpaced the checkpointer)")
	}
}

// TestRestoreRejectsForeignCheckpoint proves the identity check: a
// checkpoint from a different campaign (seed, prefix set, or shard
// count) must be refused, not silently applied.
func TestRestoreRejectsForeignCheckpoint(t *testing.T) {
	mk := func(seed uint64, shards int, prefixes ...string) *Engine {
		var ps []netip.Prefix
		for _, p := range prefixes {
			ps = append(ps, netip.MustParsePrefix(p))
		}
		eng, err := New(Config{
			Sweep:  zmapquic.NewSweep(seed, ps),
			Shards: shards,
			Probe:  func(context.Context, netip.Addr) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	path := filepath.Join(t.TempDir(), "state.json")
	orig := mk(1, 4, "10.0.0.0/24")
	orig.cfg.CheckpointPath = path
	if err := orig.checkpoint(); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := mk(1, 4, "10.0.0.0/24").Restore(cp); err != nil {
		t.Fatalf("identical campaign rejected: %v", err)
	}
	for name, other := range map[string]*Engine{
		"different seed":     mk(2, 4, "10.0.0.0/24"),
		"different shards":   mk(1, 8, "10.0.0.0/24"),
		"different prefixes": mk(1, 4, "10.0.1.0/24"),
	} {
		if err := other.Restore(cp); !errors.Is(err, errCheckpointMismatch) {
			t.Errorf("%s: Restore = %v, want errCheckpointMismatch", name, err)
		}
	}
}

// previousWalkState and previousWalkJournal are what a version-1 engine
// wrote for a 4-shard campaign over NewSweep(7, 10.0.0.0/23), cancelled
// after six probes. That walk permuted a power-of-4 domain of 1,024
// positions and skipped those past Total: shard 0's cursor of 11 counts
// five skips, and its units name other addresses than today's walk puts
// there.
const (
	previousWalkState = `{
  "version": 1,
  "campaign": "e2c36c86665eb102beb79dde",
  "seed": 7,
  "shards": 4,
  "total": 512,
  "prefixes": [
    "10.0.0.0/23"
  ],
  "unix_ms": 1792386515777,
  "cursors": [
    {
      "shard": 0,
      "cursor": 11,
      "done": false
    },
    {
      "shard": 1,
      "cursor": 0,
      "done": false
    },
    {
      "shard": 2,
      "cursor": 0,
      "done": false
    },
    {
      "shard": 3,
      "cursor": 0,
      "done": false
    }
  ],
  "checksum": "b56646452515a81f98eef9c37367cbdb42826c69d30edb4fe8294dc7c17d709d"
}
`
	previousWalkJournal = `{"type":"probe","shard":0,"pos":1,"addr":"10.0.0.106"}
{"type":"probe","shard":0,"pos":2,"addr":"10.0.1.217"}
{"type":"probe","shard":0,"pos":3,"addr":"10.0.0.181"}
{"type":"probe","shard":0,"pos":5,"addr":"10.0.0.136"}
{"type":"probe","shard":0,"pos":7,"addr":"10.0.1.144"}
{"type":"probe","shard":0,"pos":10,"addr":"10.0.1.43"}
`
)

// TestPreviousWalkStateIsRefused: a state file or a journal written for
// the previous walk must not resume this one, whose positions map to
// other addresses. The state file fails on its version, and restamped
// with today's version, on its campaign identity; the journal fails on
// its addresses, and moves no cursor.
func TestPreviousWalkStateIsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte(previousWalkState), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, errCheckpointVersion) {
		t.Fatalf("LoadCheckpoint = %v, want errCheckpointVersion", err)
	}

	eng, err := New(Config{
		Sweep:  zmapquic.NewSweep(7, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/23")}),
		Shards: 4,
		Probe:  func(context.Context, netip.Addr) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var restamped Checkpoint
	if err := json.Unmarshal([]byte(previousWalkState), &restamped); err != nil {
		t.Fatal(err)
	}
	restamped.Version = checkpointVersion
	if err := eng.Restore(&restamped); !errors.Is(err, errCheckpointMismatch) {
		t.Fatalf("Restore of the restamped file = %v, want errCheckpointMismatch", err)
	}

	if err := eng.ReplayJournal(strings.NewReader(previousWalkJournal)); !errors.Is(err, errCheckpointMismatch) {
		t.Fatalf("ReplayJournal = %v, want errCheckpointMismatch", err)
	}
	if p := eng.Progress(); p.Units != 0 {
		t.Fatalf("refused state moved the cursors %d units", p.Units)
	}
}

// TestGracefulCancelWritesFinalCheckpoint: context cancellation is
// the graceful stop — unlike kill it persists final cursors, so a
// follow-up resume does no redundant work at all.
func TestGracefulCancelWritesFinalCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Uint64
	eng, err := New(Config{
		Sweep:  zmapquic.NewSweep(3, []netip.Prefix{netip.MustParsePrefix("10.3.0.0/20")}),
		Shards: 4,
		Probe: func(context.Context, netip.Addr) error {
			if n.Add(1) == 500 {
				cancel()
			}
			return nil
		},
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("no valid final checkpoint after graceful cancel: %v", err)
	}
	var units uint64
	for _, sc := range cp.Cursors {
		units += sc.Cursor
	}
	if units == 0 {
		t.Fatal("final checkpoint recorded no progress")
	}
}
