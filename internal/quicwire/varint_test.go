package quicwire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestVarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 37, 63, 64, 151288809941952652 % maxVarint, 15293, 494878333, 1<<14 - 1, 1 << 14, 1<<30 - 1, 1 << 30, maxVarint}
	for _, v := range cases {
		b := AppendVarint(nil, v)
		got, n, err := ParseVarint(b)
		if err != nil {
			t.Fatalf("ParseVarint(%x): %v", b, err)
		}
		if got != v || n != len(b) {
			t.Errorf("round trip %d: got %d (n=%d, len=%d)", v, got, n, len(b))
		}
		if want := minVarintLen(v); n != want {
			t.Errorf("%d encoded in %d bytes, want the minimal %d", v, n, want)
		}
	}
}

func TestVarintRFCVectors(t *testing.T) {
	// RFC 9000, Appendix A.1 sample decodings.
	vectors := []struct {
		in   []byte
		want uint64
	}{
		{[]byte{0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c}, 151288809941952652},
		{[]byte{0x9d, 0x7f, 0x3e, 0x7d}, 494878333},
		{[]byte{0x7b, 0xbd}, 15293},
		{[]byte{0x25}, 37},
		{[]byte{0x40, 0x25}, 37}, // non-minimal two-byte encoding also decodes to 37
	}
	for _, v := range vectors {
		got, n, err := ParseVarint(v.in)
		if err != nil || got != v.want || n != len(v.in) {
			t.Errorf("ParseVarint(%x) = %d,%d,%v want %d", v.in, got, n, err, v.want)
		}
	}
}

func TestVarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		v %= maxVarint + 1
		b := AppendVarint(nil, v)
		got, n, err := ParseVarint(b)
		return err == nil && got == v && n == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarintTruncated(t *testing.T) {
	if _, _, err := ParseVarint(nil); err != ErrTruncated {
		t.Errorf("empty input: err = %v", err)
	}
	full := AppendVarint(nil, 494878333)
	for i := 1; i < len(full); i++ {
		if _, _, err := ParseVarint(full[:i]); err != ErrTruncated {
			t.Errorf("truncated to %d bytes: err = %v", i, err)
		}
	}
}

func TestVarintPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendVarint(maxVarint+1) did not panic")
		}
	}()
	AppendVarint(nil, maxVarint+1)
}

func TestAppendVarintWithLen(t *testing.T) {
	for _, c := range []struct {
		v      uint64
		length int
	}{{5, 1}, {5, 2}, {5, 4}, {5, 8}, {16000, 4}, {1 << 40, 8}} {
		b := AppendVarintWithLen(nil, c.v, c.length)
		if len(b) != c.length {
			t.Fatalf("len = %d want %d", len(b), c.length)
		}
		got, n, err := ParseVarint(b)
		if err != nil || got != c.v || n != c.length {
			t.Errorf("AppendVarintWithLen(%d,%d) round trip: %d,%d,%v", c.v, c.length, got, n, err)
		}
	}
}

func TestAppendVarintWithLenPanics(t *testing.T) {
	for _, c := range []struct {
		v      uint64
		length int
	}{{64, 1}, {1 << 14, 2}, {1 << 30, 4}, {5, 3}} {
		func() {
			defer func() { recover() }()
			AppendVarintWithLen(nil, c.v, c.length)
			t.Errorf("AppendVarintWithLen(%d, %d) did not panic", c.v, c.length)
		}()
	}
}

func TestReaderVarbytes(t *testing.T) {
	b := AppendVarint(nil, 3)
	b = append(b, 'a', 'b', 'c')
	r := &reader{b: b}
	if got := r.varbytes(); !bytes.Equal(got, []byte("abc")) || r.err != nil {
		t.Errorf("varbytes = %q, err=%v", got, r.err)
	}
	// Length prefix longer than remaining data must fail, not panic.
	r = &reader{b: AppendVarint(nil, 10)}
	if got := r.varbytes(); got != nil || r.err == nil {
		t.Errorf("oversized varbytes: got %q err=%v", got, r.err)
	}
}

// minVarintLen is the number of bytes the minimal encoding of v uses.
func minVarintLen(v uint64) int {
	switch {
	case v < 1<<6:
		return 1
	case v < 1<<14:
		return 2
	case v < 1<<30:
		return 4
	}
	return 8
}
