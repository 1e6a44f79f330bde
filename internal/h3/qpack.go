// Package h3 implements the subset of HTTP/3 (draft-ietf-quic-http-34
// / RFC 9114) and QPACK (RFC 9204) that the QScanner needs: control
// streams with SETTINGS, HEADERS frames encoded against the QPACK
// static table (no dynamic table), and request/response exchange —
// enough to issue the HEAD requests whose Server headers drive the
// paper's Section 5.2 deployment fingerprinting.
package h3

import (
	"errors"
	"fmt"
	"strings"
)

// HeaderField is one HTTP field line.
type HeaderField struct {
	Name  string
	Value string
}

// qpackStatic is the QPACK static table (RFC 9204, Appendix A),
// truncated to the entries useful for requests and responses here.
// Index values match the RFC.
var qpackStatic = []HeaderField{
	0:  {":authority", ""},
	1:  {":path", "/"},
	2:  {"age", "0"},
	3:  {"content-disposition", ""},
	4:  {"content-length", "0"},
	5:  {"cookie", ""},
	6:  {"date", ""},
	7:  {"etag", ""},
	8:  {"if-modified-since", ""},
	9:  {"if-none-match", ""},
	10: {"last-modified", ""},
	11: {"link", ""},
	12: {"location", ""},
	13: {"referer", ""},
	14: {"set-cookie", ""},
	15: {":method", "CONNECT"},
	16: {":method", "DELETE"},
	17: {":method", "GET"},
	18: {":method", "HEAD"},
	19: {":method", "OPTIONS"},
	20: {":method", "POST"},
	21: {":method", "PUT"},
	22: {":scheme", "http"},
	23: {":scheme", "https"},
	24: {":status", "103"},
	25: {":status", "200"},
	26: {":status", "304"},
	27: {":status", "404"},
	28: {":status", "503"},
	29: {"accept", "*/*"},
	30: {"accept", "application/dns-message"},
	31: {"accept-encoding", "gzip, deflate, br"},
	32: {"accept-ranges", "bytes"},
	33: {"access-control-allow-headers", "cache-control"},
	34: {"access-control-allow-headers", "content-type"},
	35: {"access-control-allow-origin", "*"},
	36: {"cache-control", "max-age=0"},
	37: {"cache-control", "max-age=2592000"},
	38: {"cache-control", "max-age=604800"},
	39: {"cache-control", "no-cache"},
	40: {"cache-control", "no-store"},
	41: {"cache-control", "public, max-age=31536000"},
	42: {"content-encoding", "br"},
	43: {"content-encoding", "gzip"},
	44: {"content-type", "application/dns-message"},
	45: {"content-type", "application/javascript"},
	46: {"content-type", "application/json"},
	47: {"content-type", "application/x-www-form-urlencoded"},
	48: {"content-type", "image/gif"},
	49: {"content-type", "image/jpeg"},
	50: {"content-type", "image/png"},
	51: {"content-type", "text/css"},
	52: {"content-type", "text/html; charset=utf-8"},
	53: {"content-type", "text/plain"},
	54: {"content-type", "text/plain;charset=utf-8"},
	55: {"range", "bytes=0-"},
	56: {"strict-transport-security", "max-age=31536000"},
	57: {"strict-transport-security", "max-age=31536000; includesubdomains"},
	58: {"strict-transport-security", "max-age=31536000; includesubdomains; preload"},
	59: {"vary", "accept-encoding"},
	60: {"vary", "origin"},
	61: {"x-content-type-options", "nosniff"},
	62: {"x-xss-protection", "1; mode=block"},
	63: {":status", "100"},
	64: {":status", "204"},
	65: {":status", "206"},
	66: {":status", "302"},
	67: {":status", "400"},
	68: {":status", "403"},
	69: {":status", "421"},
	70: {":status", "425"},
	71: {":status", "500"},
	72: {"accept-language", ""},
	73: {"access-control-allow-credentials", "FALSE"},
	74: {"access-control-allow-credentials", "TRUE"},
	75: {"access-control-allow-headers", "*"},
	76: {"access-control-allow-methods", "get"},
	77: {"access-control-allow-methods", "get, post, options"},
	78: {"access-control-allow-methods", "options"},
	79: {"access-control-expose-headers", "content-length"},
	80: {"access-control-request-headers", "content-type"},
	81: {"access-control-request-method", "get"},
	82: {"access-control-request-method", "post"},
	83: {"alt-svc", "clear"},
	84: {"authorization", ""},
	85: {"content-security-policy", "script-src 'none'; object-src 'none'; base-uri 'none'"},
	86: {"early-data", "1"},
	87: {"expect-ct", ""},
	88: {"forwarded", ""},
	89: {"if-range", ""},
	90: {"origin", ""},
	91: {"purpose", "prefetch"},
	92: {"server", ""},
	93: {"timing-allow-origin", "*"},
	94: {"upgrade-insecure-requests", "1"},
	95: {"user-agent", ""},
	96: {"x-forwarded-for", ""},
	97: {"x-frame-options", "deny"},
	98: {"x-frame-options", "sameorigin"},
}

// staticLookup finds a static table match: exact (name+value) or
// name-only.
func staticLookup(f HeaderField) (idx int, exact bool) {
	nameIdx := -1
	for i, e := range qpackStatic {
		if e.Name == f.Name {
			if e.Value == f.Value {
				return i, true
			}
			if nameIdx < 0 {
				nameIdx = i
			}
		}
	}
	return nameIdx, false
}

// appendPrefixedInt encodes an integer with an n-bit prefix
// (RFC 7541, Section 5.1 as used by QPACK), OR-ing the prefix bits
// into the first byte.
func appendPrefixedInt(b []byte, firstByte byte, prefixBits int, v uint64) []byte {
	max := uint64(1)<<prefixBits - 1
	if v < max {
		return append(b, firstByte|byte(v))
	}
	b = append(b, firstByte|byte(max))
	v -= max
	for v >= 128 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// parsePrefixedInt decodes a prefix integer, returning the value and
// bytes consumed.
func parsePrefixedInt(b []byte, prefixBits int) (uint64, int, error) {
	if len(b) == 0 {
		return 0, 0, errTruncated
	}
	max := uint64(1)<<prefixBits - 1
	v := uint64(b[0]) & max
	if v < max {
		return v, 1, nil
	}
	shift := 0
	for i := 1; i < len(b); i++ {
		v += uint64(b[i]&0x7f) << shift
		if b[i]&0x80 == 0 {
			return v, i + 1, nil
		}
		shift += 7
		if shift > 62 {
			return 0, 0, errors.New("h3: prefixed integer overflow")
		}
	}
	return 0, 0, errTruncated
}

var errTruncated = errors.New("h3: truncated input")

// EncodeHeaders produces a QPACK-encoded field section using only the
// static table (required insert count and base both zero, so no
// dynamic table state is needed on either side).
func EncodeHeaders(fields []HeaderField) []byte {
	// Encoded field section prefix: Required Insert Count = 0, Base = 0.
	b := []byte{0, 0}
	for _, f := range fields {
		if idx, exact := staticLookup(f); exact {
			// Indexed Field Line, static: 1 1 T=1 index(6+)
			b = appendPrefixedInt(b, 0xc0, 6, uint64(idx))
		} else if idx >= 0 {
			// Literal Field Line With Name Reference, static:
			// 0 1 N=0 T=1 index(4+), then value length(7+) value
			b = appendPrefixedInt(b, 0x50, 4, uint64(idx))
			b = appendPrefixedInt(b, 0x00, 7, uint64(len(f.Value)))
			b = append(b, f.Value...)
		} else {
			// Literal Field Line With Literal Name:
			// 0 0 1 N=0 H=0 namelen(3+) name, H=0 valuelen(7+) value
			// Lower-cased first, measured second: the two lengths
			// differ for some non-ASCII names.
			name := strings.ToLower(f.Name)
			b = appendPrefixedInt(b, 0x20, 3, uint64(len(name)))
			b = append(b, name...)
			b = appendPrefixedInt(b, 0x00, 7, uint64(len(f.Value)))
			b = append(b, f.Value...)
		}
	}
	return b
}

// DecodeHeaders parses a QPACK field section that references only the
// static table (the only kind EncodeHeaders and the simulated servers
// produce; dynamic references are rejected).
func DecodeHeaders(b []byte) ([]HeaderField, error) {
	// Field section prefix.
	ric, n, err := parsePrefixedInt(b, 8)
	if err != nil {
		return nil, err
	}
	b = b[n:]
	if ric != 0 {
		return nil, errors.New("h3: dynamic table required (required insert count != 0)")
	}
	if len(b) == 0 {
		return nil, errTruncated
	}
	_, n, err = parsePrefixedInt(b, 7) // Base (sign bit in 0x80)
	if err != nil {
		return nil, err
	}
	b = b[n:]

	var fields []HeaderField
	for len(b) > 0 {
		first := b[0]
		switch {
		case first&0x80 != 0: // Indexed Field Line
			if first&0x40 == 0 {
				return nil, errors.New("h3: dynamic table reference")
			}
			idx, n, err := parsePrefixedInt(b, 6)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if idx >= uint64(len(qpackStatic)) {
				return nil, fmt.Errorf("h3: static index %d out of range", idx)
			}
			fields = append(fields, qpackStatic[idx])
		case first&0x40 != 0: // Literal With Name Reference
			if first&0x10 == 0 {
				return nil, errors.New("h3: dynamic table name reference")
			}
			idx, n, err := parsePrefixedInt(b, 4)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if idx >= uint64(len(qpackStatic)) {
				return nil, fmt.Errorf("h3: static index %d out of range", idx)
			}
			val, n2, err := parseString(b, 7)
			if err != nil {
				return nil, err
			}
			b = b[n2:]
			fields = append(fields, HeaderField{Name: qpackStatic[idx].Name, Value: val})
		case first&0x20 != 0: // Literal With Literal Name
			name, n, err := parseString(b, 3)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			// RFC 9114, Section 4.2: a message with an upper-case field
			// name is malformed. Passed through, a peer's "Server" would
			// be missed by a lookup of "server" and nobody told.
			if strings.ContainsFunc(name, func(r rune) bool { return 'A' <= r && r <= 'Z' }) {
				return nil, fmt.Errorf("h3: malformed field section: upper-case field name %q", name)
			}
			val, n2, err := parseString(b, 7)
			if err != nil {
				return nil, err
			}
			b = b[n2:]
			fields = append(fields, HeaderField{Name: name, Value: val})
		default:
			return nil, fmt.Errorf("h3: unsupported field line type 0x%02x", first)
		}
	}
	return fields, nil
}

// parseString reads a length-prefixed string with an H bit ahead of
// the length prefix, Huffman-decoding when the bit is set.
func parseString(b []byte, prefixBits int) (string, int, error) {
	if len(b) == 0 {
		return "", 0, errTruncated
	}
	huffman := b[0]&(1<<prefixBits) != 0
	length, n, err := parsePrefixedInt(b, prefixBits)
	if err != nil {
		return "", 0, err
	}
	if uint64(len(b)-n) < length {
		return "", 0, errTruncated
	}
	raw := b[n : n+int(length)]
	if huffman {
		s, err := huffmanDecode(raw)
		if err != nil {
			return "", 0, err
		}
		return s, n + int(length), nil
	}
	return string(raw), n + int(length), nil
}
