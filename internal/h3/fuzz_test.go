package h3

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeHeaders: a field section from a stranger must never panic
// the QPACK decoder, and the fields it yields must survive our own
// encoder: EncodeHeaders output decodes to the same list, names in
// lower case. The decoder refuses a literal name with an ASCII
// upper-case letter and passes any other through whatever its encoding;
// the encoder lower-cases what is left, which may change its length
// (the last four seeds).
func FuzzDecodeHeaders(f *testing.F) {
	f.Add(EncodeHeaders([]HeaderField{
		{Name: ":method", Value: "HEAD"},               // exact static match
		{Name: ":authority", Value: "www.example.org"}, // name reference
		{Name: "x-custom-header", Value: "zzz"},        // literal name
	}))
	f.Add(EncodeHeaders([]HeaderField{{Name: ":status", Value: "200"}, {Name: "alt-svc", Value: `h3-29=":443"; ma=3600`}}))
	f.Add(EncodeHeaders(nil))
	// Literal with name reference ("server"), Huffman-coded value.
	val := huffmanEncode("cloudflare")
	huff := appendPrefixedInt([]byte{0, 0}, 0x50, 4, 92)
	huff = appendPrefixedInt(huff, 0x80, 7, uint64(len(val)))
	f.Add(append(huff, val...))
	f.Add([]byte{0x00, 0x00, 0x29, 0xff, 0xff})  // Huffman literal name, invalid code
	f.Add([]byte("\x000#00A\x00"))               // upper-case literal name
	f.Add([]byte("\x0001\x9a\x80"))              // literal name that is not UTF-8
	f.Add([]byte("\x00\x00\x24x-\xc4\xb0\x00"))  // "x-İ": the lower case is a byte shorter
	f.Add([]byte("\x00\x00\x24x-\xc8\xba\x01v")) // "x-Ⱥ": a byte longer
	f.Fuzz(func(t *testing.T, b []byte) {
		fields, err := DecodeHeaders(b)
		if err != nil {
			return
		}
		want := make([]HeaderField, len(fields))
		for i, field := range fields {
			if strings.ContainsFunc(field.Name, func(r rune) bool { return 'A' <= r && r <= 'Z' }) {
				t.Fatalf("decoded an upper-case field name %q (input %x)", field.Name, b)
			}
			want[i] = HeaderField{Name: strings.ToLower(field.Name), Value: field.Value}
		}
		again, err := DecodeHeaders(EncodeHeaders(fields))
		if err != nil {
			t.Fatalf("our own encoding of %+v does not decode: %v (input %x)", fields, err, b)
		}
		if len(want)+len(again) > 0 && !reflect.DeepEqual(want, again) {
			t.Fatalf("fields changed across a round trip (input %x)\n got %+v\nwant %+v", b, again, want)
		}
	})
}

// FuzzHuffmanDecode: arbitrary bytes must never panic the decoder, and
// a string it yields encodes back to bytes that decode to it.
func FuzzHuffmanDecode(f *testing.F) {
	f.Add(huffmanEncode("www.example.com"))
	f.Add(huffmanEncode("no-cache"))
	f.Add([]byte{0x07})                   // '0' plus three bits of valid padding
	f.Add([]byte{0x00})                   // padding that is not an EOS prefix
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // EOS in the body
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := huffmanDecode(b)
		if err != nil {
			return
		}
		if again, err := huffmanDecode(huffmanEncode(s)); err != nil || again != s {
			t.Fatalf("huffmanDecode(%x) = %q, which re-encodes and decodes to %q, %v", b, s, again, err)
		}
	})
}
