package h3

import (
	"errors"
	"fmt"
	"io"

	"quicscan/internal/quicwire"
)

// HTTP/3 frame types (RFC 9114, Section 7.2).
const (
	frameData     uint64 = 0x00
	frameHeaders  uint64 = 0x01
	frameSettings uint64 = 0x04
)

// streamTypeControl is the control stream's unidirectional stream type
// (RFC 9114, Section 6.2).
const streamTypeControl uint64 = 0x00

// Settings identifiers.
const (
	settingQPACKMaxTableCapacity uint64 = 0x01
	settingMaxFieldSectionSize   uint64 = 0x06
	settingQPACKBlockedStreams   uint64 = 0x07
)

// setting is one HTTP/3 SETTINGS entry.
type setting struct {
	ID    uint64
	Value uint64
}

// appendFrame serializes an HTTP/3 frame (type, length, payload).
func appendFrame(b []byte, frameType uint64, payload []byte) []byte {
	b = quicwire.AppendVarint(b, frameType)
	b = quicwire.AppendVarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// appendSettings serializes a SETTINGS frame.
func appendSettings(b []byte, settings []setting) []byte {
	var payload []byte
	for _, s := range settings {
		payload = quicwire.AppendVarint(payload, s.ID)
		payload = quicwire.AppendVarint(payload, s.Value)
	}
	return appendFrame(b, frameSettings, payload)
}

// frameReader reads HTTP/3 frames from a stream.
type frameReader struct {
	r io.Reader
}

var errFrameTooLarge = errors.New("h3: frame exceeds 1 MiB limit")

// next reads one frame. Unknown frame types are returned for the
// caller to skip (RFC 9114 requires ignoring them).
func (fr *frameReader) next() (frameType uint64, payload []byte, err error) {
	frameType, err = readVarint(fr.r)
	if err != nil {
		return 0, nil, err
	}
	length, err := readVarint(fr.r)
	if err != nil {
		return 0, nil, err
	}
	if length > 1<<20 {
		return 0, nil, errFrameTooLarge
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, fmt.Errorf("h3: reading %d-byte frame payload: %w", length, err)
	}
	return frameType, payload, nil
}

// readVarint reads a QUIC varint from a byte stream.
func readVarint(r io.Reader) (uint64, error) {
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return 0, err
	}
	length := 1 << (first[0] >> 6)
	buf := make([]byte, length)
	buf[0] = first[0]
	if length > 1 {
		if _, err := io.ReadFull(r, buf[1:]); err != nil {
			return 0, err
		}
	}
	v, _, err := quicwire.ParseVarint(buf)
	return v, err
}
