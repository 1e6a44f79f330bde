package telemetry

import (
	"bytes"
	"testing"
	"unicode"
)

// FuzzMetricName cross-checks the byte-level name validator against a
// rune-level reference implementation and asserts that every accepted
// name survives the Prometheus text round trip (registration, export)
// without panicking.
func FuzzMetricName(f *testing.F) {
	for _, seed := range []string{
		"", "a", "quic_dials_total", "ns:sub_total", "_x", "9bad",
		"label-with-dash", "é", "a\x00b", "__reserved", "A9_b", "a:",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		err := checkMetricName(name)
		if (err == nil) != refValidMetricName(name) {
			t.Fatalf("checkMetricName(%q) = %v, reference says valid=%v", name, err, refValidMetricName(name))
		}
		lerr := checkLabelName(name)
		if lerr == nil && checkMetricName(name) != nil {
			// Every valid label name is also a valid metric name
			// (labels are the stricter grammar, minus ':').
			t.Fatalf("label %q accepted but metric name rejected", name)
		}
		if err != nil {
			return
		}
		// Accepted names must export cleanly.
		r := NewRegistry()
		r.Counter(name).Inc()
		var b bytes.Buffer
		if werr := r.writePrometheus(&b); werr != nil {
			t.Fatalf("writePrometheus(%q): %v", name, werr)
		}
		if snap := r.Snapshot(); snap.Counters[name] != 1 {
			t.Fatalf("snapshot lost counter %q", name)
		}
	})
}

func refValidMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		if r > unicode.MaxASCII {
			return false
		}
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// FuzzParseTrace feeds arbitrary bytes to the JSON-seq trace parser:
// it must never panic, and whatever it successfully parses must
// re-encode and re-parse to the same event names (round trip on the
// surviving prefix).
func FuzzParseTrace(f *testing.F) {
	var seedBuf bytes.Buffer
	ct := newConnTrace(&seedBuf, "seed")
	ct.Event("packet_sent", "space", "initial", "pn", 1, "size", 1200)
	ct.Event("connection_closed", "error", "timeout")
	ct.Close()
	f.Add(seedBuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{recordSeparator})
	f.Add([]byte("\x1e{\"name\":\"x\"}\n\x1enot json\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := parseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var reenc bytes.Buffer
		rt := newConnTrace(&reenc, "roundtrip")
		for _, ev := range events {
			rt.Event(ev.Name)
		}
		rt.Close()
		again, err := parseTrace(bytes.NewReader(reenc.Bytes()))
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(events)+1 { // +1 for trace_start
			t.Fatalf("round trip lost events: %d -> %d", len(events), len(again)-1)
		}
		for i, ev := range events {
			if again[i+1].Name != ev.Name {
				t.Fatalf("event %d name %q != %q", i, again[i+1].Name, ev.Name)
			}
		}
	})
}
