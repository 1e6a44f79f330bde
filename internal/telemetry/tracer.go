package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records per-connection protocol events in the spirit of
// qlog (draft-ietf-quic-qlog): one JSON text sequence (RFC 7464) per
// connection, each record an event with a relative timestamp, a name
// from a small catalogue and a flat data object. A failed or repaired
// handshake against the simulated Internet can be replayed
// event-by-event from its trace.
//
// Event catalogue emitted by internal/quic (see DESIGN.md §7):
//
//	trace_start                      label, start time
//	connection_started               remote, version, odcid
//	packet_sent                      space, pn, size
//	packet_received                  space, pn, size
//	version_negotiation              server_versions
//	retry_received                   token_len
//	handshake_state                  state (keys_installed:level / done)
//	transport_parameters_received    selected parameters
//	pto_fired                        count
//	retransmit                       pto_count
//	connection_closed                error
//
// recordSeparator per RFC 7464: each record is RS + JSON + LF.
const recordSeparator = 0x1E

// Event is one parsed trace record.
type Event struct {
	// TimeMs is milliseconds since the trace started.
	TimeMs float64 `json:"time_ms"`
	// Name is the event kind from the catalogue above.
	Name string `json:"name"`
	// Data carries event-specific fields.
	Data map[string]any `json:"data,omitempty"`
}

// Tracer hands out per-connection traces, one file per connection
// under a directory (the -qlog-dir flag). A nil *Tracer is a valid
// no-op: Conn on it returns a nil *ConnTrace, whose methods are also
// no-ops, so producers never need nil checks of their own.
type Tracer struct {
	dir string
	seq atomic.Uint64
}

// NewTracer creates a tracer writing one <seq>_<label>.qlog file per
// connection under dir, creating the directory if needed.
func NewTracer(dir string) (*Tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Tracer{dir: dir}, nil
}

// Conn opens a trace for one connection. Returns nil (a no-op trace)
// when the tracer is nil or the file cannot be created — tracing
// failures never break a scan.
func (t *Tracer) Conn(label string) *ConnTrace {
	if t == nil {
		return nil
	}
	name := fmt.Sprintf("%06d_%s.qlog", t.seq.Add(1), sanitizeLabel(label))
	f, err := os.Create(filepath.Join(t.dir, name))
	if err != nil {
		return nil
	}
	return newConnTrace(f, label)
}

// sanitizeLabel keeps file names portable.
func sanitizeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && len(out) < 64; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "conn"
	}
	return string(out)
}

// ConnTrace records the events of one connection. All methods are
// safe for concurrent use and safe on a nil receiver.
type ConnTrace struct {
	mu     sync.Mutex
	w      io.Writer
	bw     *bufio.Writer
	closer io.Closer
	start  time.Time
	closed bool
}

// newConnTrace wraps an arbitrary writer (a file, or a bytes.Buffer
// in tests) as a connection trace and emits the trace_start record.
// If w implements io.Closer, Close closes it.
func newConnTrace(w io.Writer, label string) *ConnTrace {
	ct := &ConnTrace{w: w, bw: bufio.NewWriter(w), start: time.Now()}
	if c, ok := w.(io.Closer); ok {
		ct.closer = c
	}
	ct.Event("trace_start", "label", label, "start", ct.start.UTC().Format(time.RFC3339Nano))
	return ct
}

// Event appends one record. kv are alternating key, value pairs for
// the event's data object; values must be JSON-encodable (strings,
// numbers, bools, string slices). Encoding errors drop the record —
// tracing never fails the connection.
func (ct *ConnTrace) Event(name string, kv ...any) {
	if ct == nil {
		return
	}
	var data map[string]any
	if len(kv) > 0 {
		data = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			k, ok := kv[i].(string)
			if !ok {
				continue
			}
			data[k] = kv[i+1]
		}
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.closed {
		return
	}
	ev := Event{
		TimeMs: float64(time.Since(ct.start).Microseconds()) / 1000,
		Name:   name,
		Data:   data,
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	ct.bw.WriteByte(recordSeparator)
	ct.bw.Write(b)
	ct.bw.WriteByte('\n')
}

// Close flushes and closes the underlying writer. Safe to call more
// than once.
func (ct *ConnTrace) Close() {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.closed {
		return
	}
	ct.closed = true
	ct.bw.Flush()
	if ct.closer != nil {
		ct.closer.Close()
	}
}

// parseTrace decodes a JSON-seq trace back into its events. Records
// that fail to decode are reported as an error with their index;
// leading/trailing whitespace between records is tolerated.
func parseTrace(r io.Reader) ([]Event, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var events []Event
	for i, rec := range bytes.Split(raw, []byte{recordSeparator}) {
		rec = bytes.TrimSpace(rec)
		if len(rec) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(rec, &ev); err != nil {
			return events, fmt.Errorf("telemetry: trace record %d: %w", i, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// ParseTraceFile reads one trace file.
func ParseTraceFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseTrace(f)
}

// EventNames projects a trace onto its ordered event kinds — what the
// golden-trace tests compare.
func EventNames(events []Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = ev.Name
	}
	return out
}

// errNoTraces is returned by TraceFiles for an empty directory.
var errNoTraces = errors.New("telemetry: no trace files")

// TraceFiles lists the trace files under dir in creation order.
func TraceFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.qlog"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, errNoTraces
	}
	return matches, nil
}
