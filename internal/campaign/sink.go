package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"sync"
)

// Record is one NDJSON output line. Two kinds flow through a sink:
//
//   - "probe": the progress journal — shard s completed unit Pos of
//     its residue-class walk by probing Addr. Probe records double as
//     the exact-resume log: ReplayJournal fast-forwards cursors past
//     everything the sink durably recorded, closing the gap between
//     the last periodic checkpoint and the moment a campaign died.
//   - "hit": a responding target with its advertised version set,
//     written by the response collector rather than the probe loop.
//
// Results stream out as they happen instead of accumulating in
// memory: a million-hit campaign holds a bounded queue, not a slice.
type Record struct {
	Type     string   `json:"type"`
	Shard    int      `json:"shard"`
	Pos      uint64   `json:"pos"`
	Addr     string   `json:"addr"`
	Versions []string `json:"versions,omitempty"`
}

// Record kinds.
const (
	recordProbe = "probe"
	RecordHit   = "hit"
)

// appendJSON hand-encodes the record; the probe journal writes one
// line per swept address, so the encoder must not be the bottleneck
// the sink exists to remove.
func (r *Record) appendJSON(b []byte) []byte {
	b = append(b, `{"type":"`...)
	b = append(b, r.Type...)
	b = append(b, `","shard":`...)
	b = strconv.AppendInt(b, int64(r.Shard), 10)
	b = append(b, `,"pos":`...)
	b = strconv.AppendUint(b, r.Pos, 10)
	b = append(b, `,"addr":"`...)
	b = append(b, r.Addr...)
	b = append(b, '"')
	if len(r.Versions) > 0 {
		b = append(b, `,"versions":[`...)
		for i, v := range r.Versions {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, '}', '\n')
	return b
}

// Sink consumes the campaign's result stream. Implementations must be
// safe for concurrent Write calls: probe workers and the response
// collector share one sink. Write is allowed to block — that is the
// backpressure contract. A sink that cannot keep up slows the probe
// loop down instead of letting records pile up in memory.
type Sink interface {
	Write(Record) error
	Close() error
}

// errSinkClosed is returned by writes to a closed sink.
var errSinkClosed = errors.New("campaign: sink closed")

// NullSink discards every record; benches and probe-only campaigns
// use it to measure engine overhead without I/O.
type NullSink struct{}

func (NullSink) Write(Record) error { return nil }
func (NullSink) Close() error       { return nil }

// NDJSONSink streams records as newline-delimited JSON through a
// bounded queue to an io.Writer. One background goroutine owns the
// writer; producers block when the queue is full, which is what
// throttles probing to the sink's drain rate. Once the underlying
// writer fails, every subsequent Write returns that error (and counts
// a drop), so the engine aborts instead of probing unrecorded.
type NDJSONSink struct {
	mu     sync.RWMutex
	closed bool
	q      chan Record
	done   chan struct{}
	// err has its own lock: the writer goroutine must be able to latch
	// a failure while a producer holds mu.RLock blocked on a full
	// queue — sharing mu would deadlock the drain loop.
	errMu sync.Mutex
	err   error
	w     *bufio.Writer
	flush bool // flush after every record (exact journal mode)
}

// ndjsonQueueLen is the default bounded queue length.
const ndjsonQueueLen = 1024

// NewNDJSONSink builds a sink over w with the given queue length
// (<=0 selects ndjsonQueueLen). If flushEach is set every record is
// flushed to w before the queue accepts more — the durable-journal
// mode the kill-and-resume proof relies on; leave it off for
// throughput and flush on Close.
func NewNDJSONSink(w io.Writer, queueLen int, flushEach bool) *NDJSONSink {
	if queueLen <= 0 {
		queueLen = ndjsonQueueLen
	}
	s := &NDJSONSink{
		q:     make(chan Record, queueLen),
		done:  make(chan struct{}),
		w:     bufio.NewWriterSize(w, 1<<16),
		flush: flushEach,
	}
	go s.run()
	return s
}

func (s *NDJSONSink) run() {
	defer close(s.done)
	var buf []byte
	for rec := range s.q {
		if s.err != nil {
			continue // drain without writing after a failure
		}
		buf = rec.appendJSON(buf[:0])
		if _, err := s.w.Write(buf); err != nil {
			s.setErr(err)
			continue
		}
		if s.flush || len(s.q) == 0 {
			if err := s.w.Flush(); err != nil {
				s.setErr(err)
			}
		}
		mSinkRecords.Inc()
		mSinkDepth.Set(int64(len(s.q)))
	}
	if s.err == nil {
		s.setErr(s.w.Flush())
	}
}

func (s *NDJSONSink) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

func (s *NDJSONSink) getErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Write enqueues one record, blocking while the queue is full.
func (s *NDJSONSink) Write(rec Record) error {
	if err := s.getErr(); err != nil {
		mSinkDrops.Inc()
		return err
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		mSinkDrops.Inc()
		return errSinkClosed
	}
	// The queue send happens under the read lock so Close cannot close
	// the channel out from under a blocked producer.
	s.q <- rec
	s.mu.RUnlock()
	mSinkDepth.Set(int64(len(s.q)))
	return nil
}

// Close drains the queue, flushes, and returns the first write error.
func (s *NDJSONSink) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return s.getErr()
	}
	s.closed = true
	close(s.q)
	s.mu.Unlock()
	<-s.done
	mSinkDepth.Set(0)
	return s.getErr()
}

// ReplayJournal fast-forwards the owned shards' cursors past every unit
// an NDJSON stream journals: the second half of an exact resume, after
// Restore, over the stream the dead process left behind. Probe units
// complete strictly in order within a shard, so a shard's highest
// journaled unit bounds everything it durably finished; cursors only
// move forward, never behind the checkpoint. Unknown or malformed lines
// are skipped: a torn final line (the process died mid-write) must not
// poison the readable prefix. Each probe record names the address its
// unit probed, and one that this campaign's walk does not put at that
// unit (another campaign's journal, or an engine that walked
// differently) fails the replay with errCheckpointMismatch before any
// cursor moves.
func (e *Engine) ReplayJournal(r io.Reader) error {
	cursors := make(map[int]uint64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue
		}
		if rec.Type != recordProbe || rec.Shard < 0 {
			continue
		}
		if !e.walks(rec) {
			return fmt.Errorf("%w: journal says shard %d unit %d probed %s, which this campaign's walk does not",
				errCheckpointMismatch, rec.Shard, rec.Pos, rec.Addr)
		}
		if next := rec.Pos + 1; next > cursors[rec.Shard] {
			cursors[rec.Shard] = next
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("campaign: replaying journal: %w", err)
	}
	for id, cur := range cursors {
		if st := e.byID[id]; st != nil && cur > st.cursor.Load() {
			st.cursor.Store(cur)
		}
	}
	return nil
}

// walks reports whether rec's shard probes rec.Addr at unit rec.Pos.
func (e *Engine) walks(rec Record) bool {
	n := uint64(e.cfg.Shards)
	if uint64(rec.Shard) >= n || rec.Pos >= e.cfg.Sweep.Total() {
		return false
	}
	want, err := netip.ParseAddr(rec.Addr)
	got, ok := e.cfg.Sweep.AddrAtPosition(uint64(rec.Shard) + rec.Pos*n)
	return err == nil && ok && got == want
}
