package dnswire

import (
	"bytes"
	"testing"
)

// FuzzParse: a datagram from a stranger must never panic the parser,
// and whatever it accepts and can marshal again is a fixed point: our
// own encoding parses, and parses to a message that encodes the same.
// (Marshal may refuse what Parse accepted — a label holding a dot, an
// empty ALPN list — and byte equality with the input is not asked for:
// output is uncompressed and drops trailing bytes.)
func FuzzParse(f *testing.F) {
	full := httpsAnswer(f)
	for i := 0; i <= len(full); i++ {
		f.Add(full[:i])
	}
	f.Add([]byte{1, 2, 3})
	// One question whose name is a compression pointer at itself.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Parse(b)
		if err != nil {
			return
		}
		enc, err := m.Marshal()
		if err != nil {
			return
		}
		m2, err := Parse(enc)
		if err != nil {
			t.Fatalf("our own encoding does not parse: %v (input %x, encoded %x)", err, b, enc)
		}
		enc2, err := m2.Marshal()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point: %v (input %x)\n first %x\nsecond %x", err, b, enc, enc2)
		}
	})
}
