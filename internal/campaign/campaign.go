// Package campaign is the internet-scale orchestration layer over the
// stateless sweep: it splits the sweep's Feistel permutation into N
// deterministic shards, runs them as leased concurrent workers under
// one global rate budget, checkpoints per-shard cursors to an
// atomic-rename JSON state file, and streams results through bounded
// NDJSON sinks instead of accumulating them in memory — the three
// properties ("Ten Years of ZMap") that let a scan campaign survive
// being killed, resumed, and spread over processes without ever
// probing an address twice or skipping one.
//
// Shard math: the sweep maps positions [0, Total) bijectively onto its
// addresses, so every position is an address and a unit is one probe.
// Shard k of N owns the positions congruent to k mod N; the residue
// classes partition the positions, so the shard walks are disjoint and
// their union is the exact sweep. A shard's whole progress is one
// number — the count of residue-class units completed — which is what
// the checkpoint and the probe journal record.
//
// Crash semantics: a unit is (probe, journal append, cursor advance),
// in that order, so every probe record a killed process leaves names a
// unit that probed, and cursors recovered from a journal flushed record
// by record are exact: kill-and-resume coverage is exactly-once. The
// engine has no kill of its own; a process dies between any two
// instructions, and its tests kill it through the probe, the sink and
// the state-file writer. The periodic checkpoint alone (journaling
// disabled, or sink lost with the process) bounds re-probing to the
// window since the last write: at-least-once, ZMap's classic contract.
//
// Workers share as little as ZMap's send threads do: a walker owns its
// shard's cursor (a cache line to itself), polls cancellation without a
// lock, and publishes its probe count once per send batch and on every
// way out of the walk, so Progress().Probes is exact whenever Run has
// returned. What they still meet at is the rate budget, the sink and
// whatever Config.Probe shares.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"quicscan/internal/telemetry"
	"quicscan/internal/zmapquic"
)

// Campaign-layer metrics (the campaign_* family in /metrics).
var (
	mShardsActive = telemetry.Default().Gauge("campaign_shards_active")
	mShardsDone   = telemetry.Default().Counter("campaign_shards_completed_total")
	mProbes       = telemetry.Default().Counter("campaign_probes_total")
	mProbeErrors  = telemetry.Default().Counter("campaign_probe_errors_total")
	mCkptWrites   = telemetry.Default().Counter("campaign_checkpoint_writes_total")
	mCkptErrors   = telemetry.Default().Counter("campaign_checkpoint_errors_total")
	mResumes      = telemetry.Default().Counter("campaign_resumes_total")
	mRateLimit    = telemetry.Default().Gauge("campaign_rate_limit")
	mSinkDepth    = telemetry.Default().Gauge("campaign_sink_depth")
	mSinkRecords  = telemetry.Default().Counter("campaign_sink_records_total")
	mSinkDrops    = telemetry.Default().Counter("campaign_sink_drops_total")
)

// ProbeFunc issues one probe. Errors are counted, not retried: the
// unit is spent either way, and loss tolerance belongs to a re-probe
// pass, not to the coverage walk.
type ProbeFunc func(ctx context.Context, addr netip.Addr) error

// Config parameterizes an Engine.
type Config struct {
	// Sweep is the permutation being walked. Required.
	Sweep *zmapquic.Sweep
	// Shards is the total shard count N of the campaign, across every
	// participating process. Default 1.
	Shards int
	// Own lists the shard ids this process walks (each in [0,Shards)).
	// Nil means all of them; separate processes splitting a campaign
	// each set their disjoint subset.
	Own []int
	// Workers bounds concurrent shard walkers. Default len(Own): one
	// per owned shard.
	Workers int
	// Rate is the global probes-per-second budget shared by all
	// workers (0 = unlimited).
	Rate int
	// Probe is called once per swept address. Required.
	Probe ProbeFunc
	// Sink receives the result stream (and the probe journal when
	// Journal is set). Nil means NullSink. The engine does not close
	// the sink; the caller owns its lifecycle.
	Sink Sink
	// Journal writes one probe record per swept address to the sink,
	// making resume exact instead of checkpoint-granular.
	Journal bool
	// CheckpointPath enables periodic atomic state-file writes.
	CheckpointPath string
	// CheckpointEvery is the write interval (default 2s).
	CheckpointEvery time.Duration
}

// shardState is one shard's live progress. Its worker stores the cursor
// after every unit, so each state fills a cache line of its own: two
// workers' cursors on one line would trade it back and forth.
type shardState struct {
	id     int
	cursor atomic.Uint64 // residue-class units completed
	done   atomic.Bool
	_      [40]byte // to 64 bytes
}

// Engine runs one process's share of a campaign. An Engine is
// single-shot: build, optionally Restore, Run once. Resuming after a
// kill means a fresh Engine restored from the durable state.
type Engine struct {
	cfg    Config
	id     string        // campaign identity fingerprint
	shards []*shardState // own shards, lease order
	byID   map[int]*shardState
	bucket *zmapquic.Limiter
	sink   Sink
	probes atomic.Uint64
	ran    atomic.Bool

	// writeFile is the checkpoint persistence seam; tests inject
	// failures here to prove torn-write and mid-checkpoint-kill
	// behavior, and drop every write after a simulated kill. Defaults
	// to writeFileAtomic.
	writeFile func(path string, data []byte) error
}

// New validates cfg and builds an Engine positioned at the start of
// every owned shard.
func New(cfg Config) (*Engine, error) {
	if cfg.Sweep == nil {
		return nil, errors.New("campaign: Config.Sweep is required")
	}
	if cfg.Probe == nil {
		return nil, errors.New("campaign: Config.Probe is required")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("campaign: invalid shard count %d", cfg.Shards)
	}
	own := cfg.Own
	if own == nil {
		own = make([]int, cfg.Shards)
		for i := range own {
			own[i] = i
		}
	}
	if len(own) == 0 {
		return nil, errors.New("campaign: no shards to run")
	}
	e := &Engine{
		cfg:       cfg,
		bucket:    zmapquic.NewLimiter(cfg.Rate),
		sink:      cfg.Sink,
		byID:      make(map[int]*shardState, len(own)),
		writeFile: writeFileAtomic,
	}
	if e.sink == nil {
		e.sink = NullSink{}
	}
	for _, id := range own {
		if id < 0 || id >= cfg.Shards {
			return nil, fmt.Errorf("campaign: shard %d outside [0,%d)", id, cfg.Shards)
		}
		if e.byID[id] != nil {
			return nil, fmt.Errorf("campaign: shard %d listed twice", id)
		}
		st := &shardState{id: id}
		e.shards = append(e.shards, st)
		e.byID[id] = st
	}
	e.id = identity(cfg.Sweep.Seed(), cfg.Shards, cfg.Sweep.Total(), cfg.Sweep.Prefixes())
	return e, nil
}

// ID returns the campaign identity fingerprint recorded in
// checkpoints.
func (e *Engine) ID() string { return e.id }

// Restore positions the engine at a checkpoint's cursors. The
// checkpoint must belong to this exact campaign (same seed, prefix
// set, shard count, target total); cursors for shards this process
// does not own are ignored.
func (e *Engine) Restore(c *Checkpoint) error {
	if c.Campaign != e.id {
		return fmt.Errorf("%w: file %s, campaign %s (seed/prefixes/shards differ)",
			errCheckpointMismatch, c.Campaign, e.id)
	}
	for _, sc := range c.Cursors {
		if st := e.byID[sc.Shard]; st != nil {
			st.cursor.Store(sc.Cursor)
			st.done.Store(sc.Done)
		}
	}
	mResumes.Inc()
	return nil
}

// Progress is a point-in-time snapshot of this process's share.
type Progress struct {
	Shards     int    // shards owned
	ShardsDone int    // of those, completed
	Units      uint64 // residue-class units completed across own shards
	Probes     uint64 // probes issued by this engine
}

func (e *Engine) Progress() Progress {
	p := Progress{Shards: len(e.shards), Probes: e.probes.Load()}
	for _, st := range e.shards {
		p.Units += st.cursor.Load()
		if st.done.Load() {
			p.ShardsDone++
		}
	}
	return p
}

// Run walks every owned shard to completion. It returns nil when all
// shards finished, ctx.Err() on cancellation (after writing a final
// checkpoint — cancellation is the graceful stop), or the first
// sink/checkpoint failure.
func (e *Engine) Run(ctx context.Context) error {
	if e.ran.Swap(true) {
		return errors.New("campaign: Engine.Run called twice (build a fresh engine to resume)")
	}
	mRateLimit.Set(int64(e.cfg.Rate))

	// The engine's probes and the shards it completes are
	// campaign_probes_total and campaign_shards_completed_total: the
	// registry reads them while it runs.
	restored := e.Progress().ShardsDone
	detach := telemetry.Default().Attach(func(rd *telemetry.Reading) {
		p := e.Progress()
		rd.Count(mProbes, p.Probes)
		rd.Count(mShardsDone, uint64(p.ShardsDone-restored))
	})
	defer detach()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Checkpointer: one synchronous write up front — the state file
	// must exist as soon as the campaign is live (a campaign killed in
	// its first seconds still resumes instead of silently starting
	// over) — then periodic snapshots while workers run.
	var (
		ckptWG   sync.WaitGroup
		ckptStop = make(chan struct{})
	)
	if e.cfg.CheckpointPath != "" {
		if err := e.checkpoint(); err != nil {
			mCkptErrors.Inc()
		}
		every := e.cfg.CheckpointEvery
		if every <= 0 {
			every = 2 * time.Second
		}
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-ckptStop:
					return
				case <-t.C:
					if err := e.checkpoint(); err != nil {
						mCkptErrors.Inc()
					}
				}
			}
		}()
	}

	// Leased shard walk: workers pull shards from the queue and run
	// each to completion (or to the cancellation boundary).
	queue := make(chan *shardState, len(e.shards))
	for _, st := range e.shards {
		if !st.done.Load() {
			queue <- st
		}
	}
	close(queue)

	workers := e.cfg.Workers
	if workers <= 0 || workers > len(e.shards) {
		workers = len(e.shards)
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range queue {
				mShardsActive.Add(1)
				err := e.runShard(runCtx, st)
				mShardsActive.Add(-1)
				if err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(ckptStop)
	ckptWG.Wait()

	if firstErr != nil && !errors.Is(firstErr, context.Canceled) {
		return firstErr
	}
	// Clean completion or graceful cancellation: persist the final
	// cursors so a follow-up resume does no redundant work.
	if e.cfg.CheckpointPath != "" {
		if err := e.checkpoint(); err != nil {
			mCkptErrors.Inc()
			return fmt.Errorf("campaign: final checkpoint: %w", err)
		}
	}
	return ctx.Err()
}

// runShard walks one residue class from its cursor. The unit loop is
// the exactly-once core: cancellation is honored only at unit
// boundaries, and the cursor advances strictly after the probe and its
// journal record.
func (e *Engine) runShard(ctx context.Context, st *shardState) error {
	var (
		n       = uint64(e.cfg.Shards)
		total   = e.cfg.Sweep.Total()
		i       = st.cursor.Load()
		journal = e.cfg.Journal
		// Polling the channel is lock-free; ctx.Err() takes the
		// context's mutex, which every worker would fight over.
		cancelled = ctx.Done()
		// probes is what this walk has issued since it last published:
		// the engine's count is written once per yield, not per unit,
		// and on every way out.
		probes  uint64
		publish = func() {
			e.probes.Add(probes)
			probes = 0
		}
	)
	defer publish()
	for {
		select {
		case <-cancelled:
			return ctx.Err()
		default:
		}
		x := uint64(st.id) + i*n
		if x >= total || x < i { // x < i: position arithmetic wrapped
			break
		}
		// Every position below Total is an address: one unit, one probe.
		addr, _ := e.cfg.Sweep.AddrAtPosition(x)
		if err := e.bucket.Wait(ctx); err != nil {
			return err
		}
		if err := e.cfg.Probe(ctx, addr); err != nil {
			mProbeErrors.Inc()
		} else {
			probes++
		}
		if journal {
			rec := Record{Type: recordProbe, Shard: st.id, Pos: i, Addr: addr.String()}
			if err := e.sink.Write(rec); err != nil {
				return fmt.Errorf("campaign: journaling shard %d unit %d: %w", st.id, i, err)
			}
		}
		i++
		st.cursor.Store(i)
		// A probe that never blocks (no rate limit, an in-memory socket)
		// would keep this worker on its P until the scheduler preempts
		// it, and on one core that starves the sweep's own collectors and
		// any in-process responder: the whole sweep leaves before anyone
		// answers, and the answers race the cooldown. Give the P away
		// once per send batch, as ScanAddrs does.
		if i%zmapquic.SendBatchSize == 0 {
			publish()
			runtime.Gosched()
		}
	}
	st.done.Store(true)
	return nil
}

// checkpoint snapshots every owned shard and atomically replaces the
// state file. Snapshots taken while workers run are safe lower
// bounds: cursors only advance after their unit fully completed.
func (e *Engine) checkpoint() error {
	c := &Checkpoint{
		Version:  checkpointVersion,
		Campaign: e.id,
		Seed:     e.cfg.Sweep.Seed(),
		Shards:   e.cfg.Shards,
		Total:    e.cfg.Sweep.Total(),
		UnixMs:   nowUnixMs(),
	}
	for _, p := range e.cfg.Sweep.Prefixes() {
		c.Prefixes = append(c.Prefixes, p.String())
	}
	for _, st := range e.shards {
		c.Cursors = append(c.Cursors, ShardCursor{
			Shard:  st.id,
			Cursor: st.cursor.Load(),
			Done:   st.done.Load(),
		})
	}
	data, err := marshalCheckpoint(c)
	if err != nil {
		return err
	}
	if err := e.writeFile(e.cfg.CheckpointPath, data); err != nil {
		return err
	}
	mCkptWrites.Inc()
	return nil
}
