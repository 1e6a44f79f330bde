// Package quicwire implements the QUIC wire image of RFC 9000 and the
// late IETF drafts (draft-29, draft-32, draft-34): variable-length
// integers, long and short packet headers, Version Negotiation packets,
// packet number encoding and the full frame set.
//
// The package is transport-agnostic: it only converts between Go values
// and bytes. Packet protection (encryption, header protection) lives in
// package quiccrypto; connection logic lives in package quic.
//
// Decoding follows the style of layer-based packet decoders: every Parse
// function consumes from the front of a byte slice and returns the value
// together with the number of bytes consumed, never retaining the input
// slice.
package quicwire

import (
	"errors"
	"fmt"
)

// Maximum value representable as a QUIC variable-length integer.
const maxVarint = 1<<62 - 1

// ErrTruncated is returned when the input is too short for the value it
// claims to contain.
var ErrTruncated = errors.New("quicwire: truncated input")

// ParseVarint decodes a variable-length integer (RFC 9000, Section 16)
// from the front of b. It returns the value and the number of bytes
// consumed.
func ParseVarint(b []byte) (v uint64, n int, err error) {
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	length := 1 << (b[0] >> 6)
	if len(b) < length {
		return 0, 0, ErrTruncated
	}
	v = uint64(b[0] & 0x3f)
	for i := 1; i < length; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v, length, nil
}

// AppendVarint appends the minimal variable-length encoding of v to b.
// It panics if v exceeds maxVarint; check v against maxVarint first
// when handling untrusted values.
func AppendVarint(b []byte, v uint64) []byte {
	switch {
	case v < 1<<6:
		return append(b, byte(v))
	case v < 1<<14:
		return append(b, 0x40|byte(v>>8), byte(v))
	case v < 1<<30:
		return append(b, 0x80|byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	case v <= maxVarint:
		return append(b, 0xc0|byte(v>>56), byte(v>>48), byte(v>>40),
			byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	panic(fmt.Sprintf("quicwire: varint value %d out of range", v))
}

// AppendVarintWithLen appends v using exactly length bytes (1, 2, 4 or 8).
// It panics if v does not fit in length bytes. This is needed for fields
// whose size must be fixed up after the fact, such as the Length field of
// a long header packet reserved before the payload size is known.
func AppendVarintWithLen(b []byte, v uint64, length int) []byte {
	switch length {
	case 1:
		if v >= 1<<6 {
			panic("quicwire: varint does not fit in 1 byte")
		}
		return append(b, byte(v))
	case 2:
		if v >= 1<<14 {
			panic("quicwire: varint does not fit in 2 bytes")
		}
		return append(b, 0x40|byte(v>>8), byte(v))
	case 4:
		if v >= 1<<30 {
			panic("quicwire: varint does not fit in 4 bytes")
		}
		return append(b, 0x80|byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	case 8:
		if v > maxVarint {
			panic("quicwire: varint does not fit in 8 bytes")
		}
		return append(b, 0xc0|byte(v>>56), byte(v>>48), byte(v>>40),
			byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	panic("quicwire: invalid varint length")
}

// reader is a cursor over a byte slice used by the frame and header
// parsers. All methods return ErrTruncated via the err field rather than
// panicking, so parsers can be written as straight-line code with a
// single error check at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
	r.off = len(r.b)
}

func (r *reader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || r.err != nil || r.remaining() < n {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) uint32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (r *reader) varint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n, err := ParseVarint(r.b[r.off:])
	if err != nil {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// varbytes reads a varint length prefix followed by that many bytes.
func (r *reader) varbytes() []byte {
	n := r.varint()
	if n > uint64(r.remaining()) {
		r.fail()
		return nil
	}
	return r.bytes(int(n))
}
