// Package listscan is what every scan over a target list shares: the
// QScanner (internal/core), the TLS-over-TCP scan, the DNS scan and the
// three behavioural modes are each a function over one target, and
// everything around that function lives here once
// — the bounded pool that keeps input order (Run), the record stream
// that writes while the scan runs (Stream), the target-file reader
// (ReadTargets, ReadNames) and the signal that stops a command
// (SignalContext). It imports the standard library only: the DNS and
// TLS scans use it without reaching the QUIC stack.
package listscan

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// DefaultWorkers is the pool width when the caller names none.
const DefaultWorkers = 64

// Run produces one record per index in [0, n) on at most workers
// goroutines (DefaultWorkers when workers <= 0) and returns them in
// index order. fn is called with a worker number in [0, workers) that
// no concurrent call shares, for per-worker state such as a leased
// socket.
//
// Cancellation has one rule: once ctx is done fn is not called again,
// and every index not yet started gets skip's record instead, which
// should name its target and carry the context error. Run therefore
// returns n records always, and returns promptly after a cancel —
// provided fn, which closes over ctx, gives up promptly itself.
//
// emit, when non-nil, receives the records in index order while the
// scan runs: each call is the next run out[a:b] of finished records,
// made as soon as records 0..b-1 all exist and no further target has
// finished in the meantime. Calls are serial, from one goroutine, and
// the last has returned when Run returns.
func Run[R any](ctx context.Context, workers, n int, fn func(worker, i int) R, skip func(i int, err error) R, emit func([]R)) []R {
	out := make([]R, n)
	if workers <= 0 {
		workers = DefaultWorkers
	}
	workers = min(workers, n)

	if emit == nil {
		emit = func([]R) {}
	}
	finished := make(chan int, workers) // a worker goes on to its next target while an emit is writing
	emitted := make(chan struct{})
	go func() {
		defer close(emitted)
		ready := make([]bool, n)
		next := 0
		for i := range finished {
			ready[i] = true
			if len(finished) > 0 {
				continue // one emit, and one flush, for all that have finished by now
			}
			end := next
			for end < n && ready[end] {
				end++
			}
			if end > next {
				emit(out[next:end])
				next = end
			}
		}
	}()

	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					out[i] = skip(i, err)
				} else {
					out[i] = fn(w, i)
				}
				finished <- i
			}
		}()
	}
	wg.Wait()
	close(finished)
	<-emitted
	return out
}

// Stream is a list scan's record stream: lines through one buffered
// writer to a file or standard output. Text records are written with
// fmt.Fprintf into the stream and JSON records through Emit; Flush
// hands what is buffered to the file, after which a kill loses no
// record written so far. The first failure sticks (bufio.Writer's
// rule) and every later write is dropped, so callers check one error,
// Close's: a short stream must not look like a finished scan.
type Stream struct {
	*bufio.Writer
	f      *os.File
	enc    *json.Encoder
	encErr error // first Encode failure: bufio keeps write errors only
}

// NewStream starts a stream on f, which Close closes unless it is
// os.Stdout.
func NewStream(f *os.File) *Stream {
	w := bufio.NewWriter(f)
	return &Stream{Writer: w, f: f, enc: json.NewEncoder(w)}
}

// Create starts a stream on the file at path, truncating it, or on
// standard output when path is empty.
func Create(path string) (*Stream, error) {
	if path == "" {
		return NewStream(os.Stdout), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewStream(f), nil
}

// Finish closes the stream and reports how a scanning command ends:
// with the stream's error if it could not be written in full, with
// ctx's if the scan was stopped, else nil. The records that did finish
// are in the output in every case.
func (s *Stream) Finish(ctx context.Context) error {
	if err := s.Close(); err != nil {
		return fmt.Errorf("writing records: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("stopped early: %w", err)
	}
	return nil
}

// Close flushes and closes the stream and returns the first error any
// write, flush or the close met.
func (s *Stream) Close() error {
	err := s.Flush()
	if s.f != os.Stdout {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
	}
	if s.encErr != nil {
		return s.encErr
	}
	return err
}

// Emit is Run's emit for a JSON stream: each record of a run becomes
// one line, and the stream is flushed at the end of the run — that is,
// whenever the scan has nothing more to write yet.
func Emit[R any](s *Stream) func([]R) {
	return func(recs []R) {
		for i := range recs {
			if err := s.enc.Encode(&recs[i]); err != nil && s.encErr == nil {
				s.encErr = err
			}
		}
		s.Flush()
	}
}

// Target is one line of a target file.
type Target struct {
	Addr netip.Addr
	// SNI and Source are the optional second and third fields: the
	// server name to offer, and the discovery channel the address came
	// from.
	SNI, Source string
}

// ReadTargets reads a target file: one "addr[,sni[,source]]" per line,
// fields trimmed, blank lines and # comments skipped. IPv4-mapped
// addresses are unmapped, so ::ffff:10.1.2.3 is 10.1.2.3 to every
// consumer. An error names the file, the line number and the line.
func ReadTargets(path string) ([]Target, error) { return readList(path, parseTarget) }

func parseTarget(line string) (Target, error) {
	fields := strings.Split(line, ",")
	a, err := netip.ParseAddr(strings.TrimSpace(fields[0]))
	t := Target{Addr: a.Unmap()}
	if len(fields) > 1 {
		t.SNI = strings.TrimSpace(fields[1])
	}
	if len(fields) > 2 {
		t.Source = strings.TrimSpace(fields[2])
	}
	return t, err
}

// ReadNames reads a list of domain names, one per line, under
// ReadTargets' rules for blanks, comments and surrounding space.
func ReadNames(path string) ([]string, error) {
	return readList(path, func(line string) (string, error) { return line, nil })
}

func readList[T any](path string, parse func(line string) (T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseList(f, path, parse)
}

// parseList is the one loop over an operator's list file.
func parseList[T any](r io.Reader, name string, parse func(line string) (T, error)) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := parse(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %q: %w", name, n, line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return out, nil
}

// SignalContext returns the context a scanning command runs under,
// for as long as it runs. SIGINT or SIGTERM cancels it, which is the
// graceful stop: the scan ends by Run's cancellation rule, the records
// written so far stay, the summary is printed and the command exits
// non-zero. Default signal handling is back as soon as the first
// signal has arrived, so a second one kills.
func SignalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx
}
