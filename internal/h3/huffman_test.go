package h3

import (
	"bytes"
	"encoding/hex"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// TestHuffmanRFC7541Vectors checks the request examples of RFC 7541,
// Appendix C.4.
func TestHuffmanRFC7541Vectors(t *testing.T) {
	vectors := []struct {
		text string
		hex  string
	}{
		{"www.example.com", "f1e3c2e5f23a6ba0ab90f4ff"},
		{"no-cache", "a8eb10649cbf"},
		{"custom-key", "25a849e95ba97d7f"},
		{"custom-value", "25a849e95bb8e8b4bf"},
		{"302", "6402"},
		{"private", "aec3771a4b"},
		{"Mon, 21 Oct 2013 20:13:21 GMT", "d07abe941054d444a8200595040b8166e082a62d1bff"},
		{"https://www.example.com", "9d29ad171863c78f0b97c8e9ae82ae43d3"},
	}
	for _, v := range vectors {
		enc := huffmanEncode(v.text)
		if got := hex.EncodeToString(enc); got != v.hex {
			t.Errorf("encode %q = %s want %s", v.text, got, v.hex)
		}
		raw, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := huffmanDecode(raw)
		if err != nil || dec != v.text {
			t.Errorf("decode %s = %q, %v", v.hex, dec, err)
		}
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		dec, err := huffmanDecode(huffmanEncode(s))
		return err == nil && dec == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// All byte values, including non-ASCII.
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	dec, err := huffmanDecode(huffmanEncode(string(all)))
	if err != nil || !bytes.Equal([]byte(dec), all) {
		t.Errorf("full byte range: %v", err)
	}
}

func TestHuffmanInvalidPadding(t *testing.T) {
	// 0x00 = five-bit code for '0' plus three zero padding bits, which
	// is not an EOS prefix (padding must be all ones).
	if _, err := huffmanDecode([]byte{0x00}); err == nil {
		t.Error("zero padding accepted")
	}
	// 0x07 is '0' plus three ones of valid padding.
	if s, err := huffmanDecode([]byte{0x07}); err != nil || s != "0" {
		t.Errorf("0x07 = %q, %v", s, err)
	}
	// A full byte of EOS prefix alone is fine padding? No: 8 bits of
	// padding are forbidden (must be < 8).
	if _, err := huffmanDecode([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("EOS in body accepted")
	}
	// Empty input decodes to empty string.
	if s, err := huffmanDecode(nil); err != nil || s != "" {
		t.Errorf("empty = %q, %v", s, err)
	}
}

func TestHuffmanFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.IntN(40))
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		huffmanDecode(b) // must not panic
	}
}

// TestDecodeHeadersWithHuffman exercises the QPACK path end to end
// with a hand-built Huffman-coded field line.
func TestDecodeHeadersWithHuffman(t *testing.T) {
	// Literal With Name Reference, static index 92 ("server"),
	// Huffman-coded value.
	val := huffmanEncode("cloudflare")
	var b []byte
	b = append(b, 0, 0) // prefix
	b = appendPrefixedInt(b, 0x50, 4, 92)
	b = appendPrefixedInt(b, 0x80, 7, uint64(len(val))) // H bit set
	b = append(b, val...)

	fields, err := DecodeHeaders(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 1 || fields[0].Name != "server" || fields[0].Value != "cloudflare" {
		t.Errorf("fields = %+v", fields)
	}
}

// huffmanEncode compresses s with the HPACK Huffman code, padding the
// final byte with EOS-prefix bits: the reference the decoder is tested
// against (the encoder never Huffman-codes).
func huffmanEncode(s string) []byte {
	var out []byte
	var cur uint64
	var bits uint8
	for i := 0; i < len(s); i++ {
		hc := huffmanTable[s[i]]
		cur = cur<<hc.bits | uint64(hc.code)
		bits += hc.bits
		for bits >= 8 {
			bits -= 8
			out = append(out, byte(cur>>bits))
		}
	}
	if bits > 0 {
		// Pad with the EOS prefix (all ones).
		cur = cur<<(8-bits) | uint64(0xff>>bits)
		out = append(out, byte(cur))
	}
	return out
}
