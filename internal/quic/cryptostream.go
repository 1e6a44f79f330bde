package quic

import "fmt"

// cryptoAssembler reorders CRYPTO frame data for one encryption level
// into the contiguous byte stream TLS consumes.
type cryptoAssembler struct {
	next     uint64          // offset of the next byte to deliver
	segments []cryptoSegment // buffered out-of-order data, sorted by offset
}

type cryptoSegment struct {
	offset uint64
	data   []byte
}

// maxCryptoBuffer bounds buffered out-of-order handshake data
// (RFC 9000 recommends at least 4096; real handshakes here are a few
// kilobytes).
const maxCryptoBuffer = 1 << 20

// push adds frame data. It returns any newly contiguous bytes ready
// for delivery to TLS (possibly nil). Data that arrives in order while
// nothing is buffered — every CRYPTO frame of a handshake without loss
// or reordering — is returned as is, without a copy: the result may
// alias data and is valid only as long as data is. Anything held back
// for later is copied.
func (a *cryptoAssembler) push(offset uint64, data []byte) ([]byte, error) {
	end := offset + uint64(len(data))
	if len(data) == 0 || end <= a.next {
		return nil, nil // nothing new: empty, or a fully delivered duplicate
	}
	if end > a.next+maxCryptoBuffer {
		return nil, fmt.Errorf("quic: crypto buffer exceeded at offset %d", offset)
	}
	if offset <= a.next && len(a.segments) == 0 {
		data = data[a.next-offset:]
		a.next = end
		return data, nil
	}
	// Trim the already-delivered prefix.
	if offset < a.next {
		data = data[a.next-offset:]
		offset = a.next
	}
	i := len(a.segments)
	for i > 0 && a.segments[i-1].offset > offset {
		i--
	}
	a.segments = append(a.segments, cryptoSegment{})
	copy(a.segments[i+1:], a.segments[i:])
	a.segments[i] = cryptoSegment{offset: offset, data: append([]byte(nil), data...)}
	return a.pop(), nil
}

// pop returns the contiguous bytes available at the delivery offset.
func (a *cryptoAssembler) pop() []byte {
	var out []byte
	n := 0
	for _, s := range a.segments {
		end := s.offset + uint64(len(s.data))
		if s.offset > a.next {
			break
		}
		if end > a.next {
			out = append(out, s.data[a.next-s.offset:]...)
			a.next = end
		}
		n++ // delivered, or a fully consumed duplicate
	}
	rest := copy(a.segments, a.segments[n:])
	clear(a.segments[rest:])
	a.segments = a.segments[:rest]
	return out
}
