package quicwire

import (
	"crypto/rand"
	"errors"
	"fmt"
)

// MaxConnIDLen is the largest connection ID length permitted by
// RFC 9000 for version 1 and the late drafts.
const MaxConnIDLen = 20

// MinInitialSize is the minimum size in bytes of a UDP datagram
// carrying a client Initial packet (RFC 9000, Section 14.1). Datagrams
// below this size must be dropped by servers, which the paper exploits
// in its padding ablation (Section 3.1).
const MinInitialSize = 1200

// ConnID is a QUIC connection ID (0 to 20 bytes).
type ConnID []byte

// NewRandomConnID returns a cryptographically random connection ID of
// the given length.
func NewRandomConnID(n int) ConnID {
	if n < 0 || n > MaxConnIDLen {
		panic("quicwire: invalid connection ID length")
	}
	id := make(ConnID, n)
	if _, err := rand.Read(id); err != nil {
		panic("quicwire: reading randomness: " + err.Error())
	}
	return id
}

func (c ConnID) String() string { return fmt.Sprintf("%x", []byte(c)) }

// PacketType identifies the QUIC packet type.
type PacketType uint8

const (
	PacketInitial PacketType = iota
	Packet0RTT
	PacketHandshake
	PacketRetry
	PacketVersionNegotiation
	Packet1RTT
)

func (t PacketType) String() string {
	switch t {
	case PacketInitial:
		return "Initial"
	case Packet0RTT:
		return "0-RTT"
	case PacketHandshake:
		return "Handshake"
	case PacketRetry:
		return "Retry"
	case PacketVersionNegotiation:
		return "VersionNegotiation"
	case Packet1RTT:
		return "1-RTT"
	}
	return fmt.Sprintf("PacketType(%d)", uint8(t))
}

// Header is the plaintext portion of a QUIC packet header. For long
// header packets the packet number and its length are only meaningful
// after header protection has been removed.
type Header struct {
	Type    PacketType
	Version Version
	DstID   ConnID
	SrcID   ConnID // long header only

	// Token is the Initial packet token (Initial only) or the Retry
	// token (Retry only).
	Token []byte

	// Length is the long header Length field: the number of bytes of
	// packet number plus protected payload.
	Length uint64

	// PacketNumber and PacketNumberLen are set after header protection
	// removal (parsing) or before protection is applied (building).
	PacketNumber    uint64
	PacketNumberLen int

	// SupportedVersions is only set for Version Negotiation packets.
	SupportedVersions []Version
}

// IsLongHeader reports whether the first byte of a packet indicates a
// long header.
func IsLongHeader(firstByte byte) bool { return firstByte&0x80 != 0 }

var (
	errNotLongHeader = errors.New("quicwire: not a long header packet")
	errBadConnIDLen  = errors.New("quicwire: connection ID longer than 20 bytes")
	errBadFixedBit   = errors.New("quicwire: fixed bit is zero")
)

// ParseLongHeader parses the version-independent invariant portion of a
// long header packet (RFC 8999) plus the type-specific fields for IETF
// versions. It stops before the (protected) packet number. The returned
// int is the number of bytes consumed, i.e. the offset of the packet
// number field for Initial/Handshake/0-RTT packets.
//
// For Version Negotiation packets (Version == 0) the SupportedVersions
// list is parsed and the whole packet is consumed.
func ParseLongHeader(b []byte) (*Header, int, error) {
	h := &Header{}
	n, err := ParseLongHeaderInto(h, b)
	if err != nil {
		return nil, 0, err
	}
	return h, n, nil
}

// ParseLongHeaderInto is ParseLongHeader into a caller-owned Header,
// for hot paths that parse per packet: h is reset and refilled, its
// byte-slice fields (DstID, SrcID, Token) alias b, and for Version
// Negotiation packets the SupportedVersions backing array is reused
// across calls. Callers retaining any of those past the next parse (or
// past b's reuse) must copy them.
func ParseLongHeaderInto(h *Header, b []byte) (int, error) {
	*h = Header{SupportedVersions: h.SupportedVersions[:0]}
	r := &reader{b: b}
	first := r.byte()
	if r.err != nil {
		return 0, r.err
	}
	if !IsLongHeader(first) {
		return 0, errNotLongHeader
	}
	h.Version = Version(r.uint32())

	dcidLen := int(r.byte())
	if dcidLen > MaxConnIDLen {
		return 0, errBadConnIDLen
	}
	h.DstID = ConnID(r.bytes(dcidLen))
	scidLen := int(r.byte())
	if scidLen > MaxConnIDLen {
		return 0, errBadConnIDLen
	}
	h.SrcID = ConnID(r.bytes(scidLen))
	if r.err != nil {
		return 0, r.err
	}

	if h.Version == 0 {
		h.Type = PacketVersionNegotiation
		if r.remaining()%4 != 0 {
			return 0, fmt.Errorf("quicwire: version negotiation body of %d bytes is not a multiple of 4", r.remaining())
		}
		for r.remaining() > 0 {
			h.SupportedVersions = append(h.SupportedVersions, Version(r.uint32()))
		}
		return r.off, r.err
	}

	// For proper packets the fixed bit must be set. A cleared fixed bit
	// with a non-zero version is not a valid QUIC packet.
	if first&0x40 == 0 {
		return 0, errBadFixedBit
	}

	switch (first >> 4) & 0x3 {
	case 0:
		h.Type = PacketInitial
	case 1:
		h.Type = Packet0RTT
	case 2:
		h.Type = PacketHandshake
	case 3:
		h.Type = PacketRetry
	}

	switch h.Type {
	case PacketInitial:
		h.Token = r.varbytes()
		h.Length = r.varint()
	case Packet0RTT, PacketHandshake:
		h.Length = r.varint()
	case PacketRetry:
		// Retry: the remainder is token || 16-byte integrity tag.
		if r.remaining() < 16 {
			return 0, ErrTruncated
		}
		h.Token = r.bytes(r.remaining() - 16)
		return r.off, r.err
	}
	if r.err != nil {
		return 0, r.err
	}
	if h.Length > uint64(r.remaining()) {
		return 0, fmt.Errorf("quicwire: header Length %d exceeds remaining %d bytes", h.Length, r.remaining())
	}
	return r.off, nil
}

// AppendLongHeader appends the long header for h up to but not
// including the packet number. The Length field is written to cover
// h.PacketNumberLen plus payloadLen bytes, always using a 2-byte varint
// so the caller may reserve the packet before knowing the final
// payload (as long as it stays under 16383 bytes).
//
// The packet number itself is appended too (unprotected); callers apply
// header protection afterwards. The returned pnOffset is the offset of
// the first packet number byte.
func AppendLongHeader(b []byte, h *Header, payloadLen int) (out []byte, pnOffset int) {
	var typeBits byte
	switch h.Type {
	case PacketInitial:
		typeBits = 0
	case Packet0RTT:
		typeBits = 1
	case PacketHandshake:
		typeBits = 2
	case PacketRetry:
		typeBits = 3
	default:
		panic("quicwire: AppendLongHeader with short header type " + h.Type.String())
	}
	if h.PacketNumberLen < 1 || h.PacketNumberLen > 4 {
		panic("quicwire: packet number length must be 1..4")
	}
	first := 0x80 | 0x40 | typeBits<<4 | byte(h.PacketNumberLen-1)
	b = append(b, first)
	b = append(b, byte(h.Version>>24), byte(h.Version>>16), byte(h.Version>>8), byte(h.Version))
	b = append(b, byte(len(h.DstID)))
	b = append(b, h.DstID...)
	b = append(b, byte(len(h.SrcID)))
	b = append(b, h.SrcID...)
	if h.Type == PacketInitial {
		b = AppendVarint(b, uint64(len(h.Token)))
		b = append(b, h.Token...)
	}
	b = AppendVarintWithLen(b, uint64(h.PacketNumberLen+payloadLen), 2)
	pnOffset = len(b)
	b = appendPacketNumber(b, h.PacketNumber, h.PacketNumberLen)
	return b, pnOffset
}

// AppendVersionNegotiation builds a complete Version Negotiation packet
// (RFC 9000, Section 17.2.1). Per the invariants, the connection IDs
// echo the client's: dst = client's source ID, src = client's
// destination ID. The first byte's unused bits are set from rnd to make
// packets look realistic; only the high bit is meaningful.
func AppendVersionNegotiation(b []byte, dst, src ConnID, rnd byte, versions []Version) []byte {
	b = append(b, 0x80|rnd&0x7f)
	b = append(b, 0, 0, 0, 0) // Version == 0 marks version negotiation
	b = append(b, byte(len(dst)))
	b = append(b, dst...)
	b = append(b, byte(len(src)))
	b = append(b, src...)
	for _, v := range versions {
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return b
}

// ParseShortHeader parses a 1-RTT packet header given the expected
// connection ID length (which the endpoint knows from the IDs it
// issued). It returns the destination connection ID, which aliases b,
// and the offset of the protected packet number.
func ParseShortHeader(b []byte, connIDLen int) (dst ConnID, pnOffset int, err error) {
	if len(b) == 0 {
		return nil, 0, ErrTruncated
	}
	if IsLongHeader(b[0]) {
		return nil, 0, errors.New("quicwire: not a short header packet")
	}
	if b[0]&0x40 == 0 {
		return nil, 0, errBadFixedBit
	}
	if connIDLen < 0 || len(b) < 1+connIDLen {
		return nil, 0, ErrTruncated
	}
	return ConnID(b[1 : 1+connIDLen]), 1 + connIDLen, nil
}

// AppendShortHeader appends a 1-RTT header including the unprotected
// packet number. The returned pnOffset is the offset of the first
// packet number byte.
func AppendShortHeader(b []byte, dst ConnID, pn uint64, pnLen int, keyPhase bool) (out []byte, pnOffset int) {
	if pnLen < 1 || pnLen > 4 {
		panic("quicwire: packet number length must be 1..4")
	}
	first := byte(0x40) | byte(pnLen-1)
	if keyPhase {
		first |= 0x04
	}
	b = append(b, first)
	b = append(b, dst...)
	pnOffset = len(b)
	b = appendPacketNumber(b, pn, pnLen)
	return b, pnOffset
}

func appendPacketNumber(b []byte, pn uint64, pnLen int) []byte {
	for i := pnLen - 1; i >= 0; i-- {
		b = append(b, byte(pn>>(8*i)))
	}
	return b
}

// PacketNumberLenFor returns the minimal packet number length that
// unambiguously encodes pn given the largest acknowledged packet
// number (RFC 9000, Section 17.1). largestAcked < 0 means nothing has
// been acknowledged yet.
func PacketNumberLenFor(pn uint64, largestAcked int64) int {
	var unacked uint64
	if largestAcked < 0 {
		unacked = pn + 1
	} else {
		unacked = pn - uint64(largestAcked)
	}
	// Need numUnacked * 2 representable in the window.
	switch {
	case unacked < 1<<7:
		return 1
	case unacked < 1<<15:
		return 2
	case unacked < 1<<23:
		return 3
	default:
		return 4
	}
}

// DecodePacketNumber reconstructs a full packet number from its
// truncated encoding, per the algorithm of RFC 9000, Appendix A.3.
func DecodePacketNumber(largest int64, truncated uint64, pnLen int) uint64 {
	expected := uint64(largest + 1)
	win := uint64(1) << (pnLen * 8)
	hwin := win / 2
	mask := win - 1
	candidate := (expected &^ mask) | truncated
	switch {
	case candidate+hwin <= expected && candidate+win < 1<<62:
		return candidate + win
	case candidate > expected+hwin && candidate >= win:
		return candidate - win
	}
	return candidate
}
