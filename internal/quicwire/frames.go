package quicwire

import (
	"fmt"
)

// Frame type identifiers (RFC 9000, Section 19).
const (
	frameTypePadding                  uint64 = 0x00
	frameTypePing                     uint64 = 0x01
	frameTypeAck                      uint64 = 0x02
	frameTypeAckECN                   uint64 = 0x03
	frameTypeResetStream              uint64 = 0x04
	frameTypeStopSending              uint64 = 0x05
	frameTypeCrypto                   uint64 = 0x06
	frameTypeNewToken                 uint64 = 0x07
	frameTypeStreamBase               uint64 = 0x08 // 0x08-0x0f with OFF/LEN/FIN bits
	frameTypeMaxData                  uint64 = 0x10
	frameTypeMaxStreamData            uint64 = 0x11
	frameTypeMaxStreamsBidi           uint64 = 0x12
	frameTypeMaxStreamsUni            uint64 = 0x13
	frameTypeDataBlocked              uint64 = 0x14
	frameTypeStreamDataBlocked        uint64 = 0x15
	frameTypeStreamsBlockedBidi       uint64 = 0x16
	frameTypeStreamsBlockedUni        uint64 = 0x17
	frameTypeNewConnectionID          uint64 = 0x18
	frameTypeRetireConnectionID       uint64 = 0x19
	frameTypePathChallenge            uint64 = 0x1a
	frameTypePathResponse             uint64 = 0x1b
	frameTypeConnectionCloseTransport uint64 = 0x1c
	frameTypeConnectionCloseApp       uint64 = 0x1d
	frameTypeHandshakeDone            uint64 = 0x1e
)

// Frame is implemented by every QUIC frame type. Append serializes the
// frame, including its type byte(s), onto b.
type Frame interface {
	Append(b []byte) []byte
	frameType() uint64
}

// AckEliciting reports whether a frame requires acknowledgement
// (everything except ACK, PADDING and CONNECTION_CLOSE).
func AckEliciting(f Frame) bool {
	switch f.(type) {
	case *AckFrame, *PaddingFrame, *ConnectionCloseFrame:
		return false
	}
	return true
}

// AllowedIn reports whether a frame may appear in a packet of type pt
// (RFC 9000, Section 12.4, Table 3). Initial and Handshake packets carry
// only PADDING, PING, ACK, CRYPTO and the transport CONNECTION_CLOSE;
// 0-RTT packets carry neither those handshake-only answers (ACK,
// CRYPTO) nor the frames only a server sends (NEW_TOKEN, PATH_RESPONSE,
// HANDSHAKE_DONE); 1-RTT packets carry everything.
func AllowedIn(f Frame, pt PacketType) bool {
	if pt == Packet1RTT {
		return true
	}
	switch fr := f.(type) {
	case *PaddingFrame, *PingFrame:
		return true
	case *AckFrame, *CryptoFrame:
		return pt != Packet0RTT
	case *ConnectionCloseFrame:
		return !fr.IsApp || pt == Packet0RTT
	case *NewTokenFrame, *PathResponseFrame, *HandshakeDoneFrame:
		return false
	}
	return pt == Packet0RTT
}

// PaddingFrame represents Count consecutive PADDING bytes.
type PaddingFrame struct{ Count int }

func (f *PaddingFrame) frameType() uint64 { return frameTypePadding }

func (f *PaddingFrame) Append(b []byte) []byte {
	for i := 0; i < f.Count; i++ {
		b = append(b, 0)
	}
	return b
}

// PingFrame elicits an acknowledgement.
type PingFrame struct{}

func (f *PingFrame) frameType() uint64      { return frameTypePing }
func (f *PingFrame) Append(b []byte) []byte { return append(b, byte(frameTypePing)) }

// AckRange is one contiguous range of acknowledged packet numbers,
// inclusive on both ends.
type AckRange struct {
	Smallest uint64
	Largest  uint64
}

// AckFrame acknowledges received packets. Ranges must be ordered from
// largest to smallest and non-overlapping, matching the wire layout.
type AckFrame struct {
	Ranges   []AckRange // Ranges[0].Largest is the Largest Acknowledged
	DelayRaw uint64     // ACK Delay field, already scaled by the exponent
}

func (f *AckFrame) frameType() uint64 { return frameTypeAck }

func (f *AckFrame) Append(b []byte) []byte {
	if len(f.Ranges) == 0 {
		panic("quicwire: ACK frame without ranges")
	}
	b = AppendVarint(b, frameTypeAck)
	b = AppendVarint(b, f.Ranges[0].Largest)
	b = AppendVarint(b, f.DelayRaw)
	b = AppendVarint(b, uint64(len(f.Ranges)-1))
	b = AppendVarint(b, f.Ranges[0].Largest-f.Ranges[0].Smallest)
	prevSmallest := f.Ranges[0].Smallest
	for _, r := range f.Ranges[1:] {
		gap := prevSmallest - r.Largest - 2
		b = AppendVarint(b, gap)
		b = AppendVarint(b, r.Largest-r.Smallest)
		prevSmallest = r.Smallest
	}
	return b
}

// Acks reports whether the frame acknowledges packet number pn.
func (f *AckFrame) Acks(pn uint64) bool {
	for _, r := range f.Ranges {
		if pn >= r.Smallest && pn <= r.Largest {
			return true
		}
	}
	return false
}

// ResetStreamFrame abruptly terminates the sending part of a stream.
type ResetStreamFrame struct {
	StreamID  uint64
	ErrorCode uint64
	FinalSize uint64
}

func (f *ResetStreamFrame) frameType() uint64 { return frameTypeResetStream }

func (f *ResetStreamFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeResetStream)
	b = AppendVarint(b, f.StreamID)
	b = AppendVarint(b, f.ErrorCode)
	return AppendVarint(b, f.FinalSize)
}

// StopSendingFrame requests that a peer cease transmission on a stream.
type StopSendingFrame struct {
	StreamID  uint64
	ErrorCode uint64
}

func (f *StopSendingFrame) frameType() uint64 { return frameTypeStopSending }

func (f *StopSendingFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeStopSending)
	b = AppendVarint(b, f.StreamID)
	return AppendVarint(b, f.ErrorCode)
}

// CryptoFrame carries TLS handshake data.
type CryptoFrame struct {
	Offset uint64
	Data   []byte
}

func (f *CryptoFrame) frameType() uint64 { return frameTypeCrypto }

func (f *CryptoFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeCrypto)
	b = AppendVarint(b, f.Offset)
	b = AppendVarint(b, uint64(len(f.Data)))
	return append(b, f.Data...)
}

// NewTokenFrame provides a token for use in a future Initial packet.
type NewTokenFrame struct{ Token []byte }

func (f *NewTokenFrame) frameType() uint64 { return frameTypeNewToken }

func (f *NewTokenFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeNewToken)
	b = AppendVarint(b, uint64(len(f.Token)))
	return append(b, f.Token...)
}

// StreamFrame carries application data on a stream. The LEN bit is
// always set when serializing unless Implicit is true (frame extends to
// the end of the packet).
type StreamFrame struct {
	StreamID uint64
	Offset   uint64
	Data     []byte
	Fin      bool
	Implicit bool // omit the Length field
}

func (f *StreamFrame) frameType() uint64 { return frameTypeStreamBase }

func (f *StreamFrame) Append(b []byte) []byte {
	t := frameTypeStreamBase
	if f.Offset > 0 {
		t |= 0x04
	}
	if !f.Implicit {
		t |= 0x02
	}
	if f.Fin {
		t |= 0x01
	}
	b = AppendVarint(b, t)
	b = AppendVarint(b, f.StreamID)
	if f.Offset > 0 {
		b = AppendVarint(b, f.Offset)
	}
	if !f.Implicit {
		b = AppendVarint(b, uint64(len(f.Data)))
	}
	return append(b, f.Data...)
}

// MaxDataFrame updates the connection-level flow control limit.
type MaxDataFrame struct{ MaximumData uint64 }

func (f *MaxDataFrame) frameType() uint64 { return frameTypeMaxData }

func (f *MaxDataFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeMaxData)
	return AppendVarint(b, f.MaximumData)
}

// MaxStreamDataFrame updates a stream-level flow control limit.
type MaxStreamDataFrame struct {
	StreamID    uint64
	MaximumData uint64
}

func (f *MaxStreamDataFrame) frameType() uint64 { return frameTypeMaxStreamData }

func (f *MaxStreamDataFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeMaxStreamData)
	b = AppendVarint(b, f.StreamID)
	return AppendVarint(b, f.MaximumData)
}

// MaxStreamsFrame raises the limit on streams the peer may open.
type MaxStreamsFrame struct {
	Bidi           bool
	MaximumStreams uint64
}

func (f *MaxStreamsFrame) frameType() uint64 {
	if f.Bidi {
		return frameTypeMaxStreamsBidi
	}
	return frameTypeMaxStreamsUni
}

func (f *MaxStreamsFrame) Append(b []byte) []byte {
	b = AppendVarint(b, f.frameType())
	return AppendVarint(b, f.MaximumStreams)
}

// DataBlockedFrame indicates connection-level flow control blocking.
type DataBlockedFrame struct{ Limit uint64 }

func (f *DataBlockedFrame) frameType() uint64 { return frameTypeDataBlocked }

func (f *DataBlockedFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeDataBlocked)
	return AppendVarint(b, f.Limit)
}

// StreamDataBlockedFrame indicates stream-level flow control blocking.
type StreamDataBlockedFrame struct {
	StreamID uint64
	Limit    uint64
}

func (f *StreamDataBlockedFrame) frameType() uint64 { return frameTypeStreamDataBlocked }

func (f *StreamDataBlockedFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeStreamDataBlocked)
	b = AppendVarint(b, f.StreamID)
	return AppendVarint(b, f.Limit)
}

// StreamsBlockedFrame indicates blocking on the stream count limit.
type StreamsBlockedFrame struct {
	Bidi  bool
	Limit uint64
}

func (f *StreamsBlockedFrame) frameType() uint64 {
	if f.Bidi {
		return frameTypeStreamsBlockedBidi
	}
	return frameTypeStreamsBlockedUni
}

func (f *StreamsBlockedFrame) Append(b []byte) []byte {
	b = AppendVarint(b, f.frameType())
	return AppendVarint(b, f.Limit)
}

// NewConnectionIDFrame provides an alternative connection ID.
type NewConnectionIDFrame struct {
	SequenceNumber      uint64
	RetirePriorTo       uint64
	ConnectionID        ConnID
	StatelessResetToken [16]byte
}

func (f *NewConnectionIDFrame) frameType() uint64 { return frameTypeNewConnectionID }

func (f *NewConnectionIDFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeNewConnectionID)
	b = AppendVarint(b, f.SequenceNumber)
	b = AppendVarint(b, f.RetirePriorTo)
	b = append(b, byte(len(f.ConnectionID)))
	b = append(b, f.ConnectionID...)
	return append(b, f.StatelessResetToken[:]...)
}

// RetireConnectionIDFrame retires a connection ID by sequence number.
type RetireConnectionIDFrame struct{ SequenceNumber uint64 }

func (f *RetireConnectionIDFrame) frameType() uint64 { return frameTypeRetireConnectionID }

func (f *RetireConnectionIDFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypeRetireConnectionID)
	return AppendVarint(b, f.SequenceNumber)
}

// PathChallengeFrame probes path reachability.
type PathChallengeFrame struct{ Data [8]byte }

func (f *PathChallengeFrame) frameType() uint64 { return frameTypePathChallenge }

func (f *PathChallengeFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypePathChallenge)
	return append(b, f.Data[:]...)
}

// PathResponseFrame answers a PATH_CHALLENGE.
type PathResponseFrame struct{ Data [8]byte }

func (f *PathResponseFrame) frameType() uint64 { return frameTypePathResponse }

func (f *PathResponseFrame) Append(b []byte) []byte {
	b = AppendVarint(b, frameTypePathResponse)
	return append(b, f.Data[:]...)
}

// ConnectionCloseFrame signals connection termination. IsApp selects
// the 0x1d application variant (no frame type field).
type ConnectionCloseFrame struct {
	IsApp        bool
	ErrorCode    uint64
	FrameType    uint64 // transport variant only
	ReasonPhrase string
}

func (f *ConnectionCloseFrame) frameType() uint64 {
	if f.IsApp {
		return frameTypeConnectionCloseApp
	}
	return frameTypeConnectionCloseTransport
}

func (f *ConnectionCloseFrame) Append(b []byte) []byte {
	b = AppendVarint(b, f.frameType())
	b = AppendVarint(b, f.ErrorCode)
	if !f.IsApp {
		b = AppendVarint(b, f.FrameType)
	}
	b = AppendVarint(b, uint64(len(f.ReasonPhrase)))
	return append(b, f.ReasonPhrase...)
}

// HandshakeDoneFrame confirms the handshake to the client.
type HandshakeDoneFrame struct{}

func (f *HandshakeDoneFrame) frameType() uint64 { return frameTypeHandshakeDone }

func (f *HandshakeDoneFrame) Append(b []byte) []byte {
	return AppendVarint(b, frameTypeHandshakeDone)
}

// FrameIter decodes the frames of one packet payload in place, without
// allocating in steady state: Next fills one of the frame values below and returns a
// pointer to it. That frame — and everything it references:
// ACK ranges live in the iterator, CRYPTO/STREAM data, tokens and
// connection IDs alias the payload — is valid only until the next call
// to Next or Reset. A caller that keeps anything copies it first
// (ParseFrames does, for callers that want frames to keep).
//
// Consecutive PADDING bytes are coalesced into one PaddingFrame. The
// zero FrameIter is ready for Reset; it must not be copied after use.
type FrameIter struct {
	r reader

	padding           PaddingFrame
	ping              PingFrame
	ack               AckFrame
	resetStream       ResetStreamFrame
	stopSending       StopSendingFrame
	crypto            CryptoFrame
	newToken          NewTokenFrame
	stream            StreamFrame
	maxData           MaxDataFrame
	maxStreamData     MaxStreamDataFrame
	maxStreams        MaxStreamsFrame
	dataBlocked       DataBlockedFrame
	streamDataBlocked StreamDataBlockedFrame
	streamsBlocked    StreamsBlockedFrame
	newConnID         NewConnectionIDFrame
	retireConnID      RetireConnectionIDFrame
	pathChallenge     PathChallengeFrame
	pathResponse      PathResponseFrame
	connClose         ConnectionCloseFrame
	handshakeDone     HandshakeDoneFrame
}

// Reset points the iterator at the start of a packet payload.
func (it *FrameIter) Reset(payload []byte) {
	it.r = reader{b: payload}
}

// Next decodes the next frame. It returns nil at the end of the
// payload or on a malformed frame; Err tells the two apart.
func (it *FrameIter) Next() Frame {
	r := &it.r
	if r.err != nil || r.remaining() == 0 {
		return nil
	}
	t := r.varint()
	if r.err != nil {
		return nil
	}
	var f Frame
	switch {
	case t == frameTypePadding:
		n := 1
		for r.remaining() > 0 && r.b[r.off] == 0 {
			r.off++
			n++
		}
		it.padding.Count = n
		f = &it.padding
	case t == frameTypePing:
		f = &it.ping
	case t == frameTypeAck || t == frameTypeAckECN:
		ack := &it.ack
		if ack.Ranges == nil {
			// The iterator's one allocation, made for its first ACK and
			// reused for every later one. (An array inside FrameIter
			// would make the iterator point into itself, which forces
			// even a stack-declared one onto the heap.)
			ack.Ranges = make([]AckRange, 0, 8)
		}
		largest := r.varint()
		ack.DelayRaw = r.varint()
		rangeCount := r.varint()
		firstRange := r.varint()
		if r.err != nil || firstRange > largest {
			return it.fail(errMalformed("ACK"))
		}
		smallest := largest - firstRange
		ack.Ranges = append(ack.Ranges[:0], AckRange{Smallest: smallest, Largest: largest})
		for i := uint64(0); i < rangeCount; i++ {
			gap := r.varint()
			length := r.varint()
			if r.err != nil || gap+2 > smallest {
				return it.fail(errMalformed("ACK range"))
			}
			largest = smallest - gap - 2
			if length > largest {
				return it.fail(errMalformed("ACK range length"))
			}
			smallest = largest - length
			ack.Ranges = append(ack.Ranges, AckRange{Smallest: smallest, Largest: largest})
		}
		if t == frameTypeAckECN {
			r.varint() // ECT0
			r.varint() // ECT1
			r.varint() // ECN-CE
		}
		f = ack
	case t == frameTypeResetStream:
		it.resetStream = ResetStreamFrame{StreamID: r.varint(), ErrorCode: r.varint(), FinalSize: r.varint()}
		f = &it.resetStream
	case t == frameTypeStopSending:
		it.stopSending = StopSendingFrame{StreamID: r.varint(), ErrorCode: r.varint()}
		f = &it.stopSending
	case t == frameTypeCrypto:
		it.crypto = CryptoFrame{Offset: r.varint(), Data: r.varbytes()}
		f = &it.crypto
	case t == frameTypeNewToken:
		it.newToken = NewTokenFrame{Token: r.varbytes()}
		f = &it.newToken
	case t >= frameTypeStreamBase && t <= frameTypeStreamBase|0x07:
		sf := &it.stream
		*sf = StreamFrame{StreamID: r.varint(), Fin: t&0x01 != 0}
		if t&0x04 != 0 {
			sf.Offset = r.varint()
		}
		if t&0x02 != 0 {
			sf.Data = r.varbytes()
		} else {
			sf.Implicit = true
			sf.Data = r.bytes(r.remaining())
		}
		f = sf
	case t == frameTypeMaxData:
		it.maxData = MaxDataFrame{MaximumData: r.varint()}
		f = &it.maxData
	case t == frameTypeMaxStreamData:
		it.maxStreamData = MaxStreamDataFrame{StreamID: r.varint(), MaximumData: r.varint()}
		f = &it.maxStreamData
	case t == frameTypeMaxStreamsBidi || t == frameTypeMaxStreamsUni:
		it.maxStreams = MaxStreamsFrame{Bidi: t == frameTypeMaxStreamsBidi, MaximumStreams: r.varint()}
		f = &it.maxStreams
	case t == frameTypeDataBlocked:
		it.dataBlocked = DataBlockedFrame{Limit: r.varint()}
		f = &it.dataBlocked
	case t == frameTypeStreamDataBlocked:
		it.streamDataBlocked = StreamDataBlockedFrame{StreamID: r.varint(), Limit: r.varint()}
		f = &it.streamDataBlocked
	case t == frameTypeStreamsBlockedBidi || t == frameTypeStreamsBlockedUni:
		it.streamsBlocked = StreamsBlockedFrame{Bidi: t == frameTypeStreamsBlockedBidi, Limit: r.varint()}
		f = &it.streamsBlocked
	case t == frameTypeNewConnectionID:
		nc := &it.newConnID
		*nc = NewConnectionIDFrame{SequenceNumber: r.varint(), RetirePriorTo: r.varint()}
		idLen := int(r.byte())
		if idLen < 1 || idLen > MaxConnIDLen {
			return it.fail(errMalformed("NEW_CONNECTION_ID length"))
		}
		nc.ConnectionID = ConnID(r.bytes(idLen))
		copy(nc.StatelessResetToken[:], r.bytes(16))
		f = nc
	case t == frameTypeRetireConnectionID:
		it.retireConnID = RetireConnectionIDFrame{SequenceNumber: r.varint()}
		f = &it.retireConnID
	case t == frameTypePathChallenge:
		copy(it.pathChallenge.Data[:], r.bytes(8))
		f = &it.pathChallenge
	case t == frameTypePathResponse:
		copy(it.pathResponse.Data[:], r.bytes(8))
		f = &it.pathResponse
	case t == frameTypeConnectionCloseTransport:
		it.connClose = ConnectionCloseFrame{ErrorCode: r.varint(), FrameType: r.varint()}
		it.connClose.ReasonPhrase = string(r.varbytes())
		f = &it.connClose
	case t == frameTypeConnectionCloseApp:
		it.connClose = ConnectionCloseFrame{IsApp: true, ErrorCode: r.varint()}
		it.connClose.ReasonPhrase = string(r.varbytes())
		f = &it.connClose
	case t == frameTypeHandshakeDone:
		f = &it.handshakeDone
	default:
		return it.fail(fmt.Errorf("quicwire: unknown frame type 0x%x", t))
	}
	if r.err != nil {
		return nil
	}
	return f
}

// fail records a malformed frame and ends the iteration.
func (it *FrameIter) fail(err error) Frame {
	it.r.err = err
	return nil
}

// Err returns the error that ended the iteration, or nil at the end of
// a well-formed payload.
func (it *FrameIter) Err() error { return it.r.err }

// cloneFrame returns a copy of f that outlives the FrameIter that
// produced it. Byte fields (CRYPTO/STREAM data, tokens, connection IDs)
// still alias the payload they were decoded from.
func cloneFrame(f Frame) Frame {
	switch fr := f.(type) {
	case *PaddingFrame:
		return clone(fr)
	case *PingFrame:
		return clone(fr)
	case *AckFrame:
		c := clone(fr)
		c.Ranges = append([]AckRange(nil), fr.Ranges...)
		return c
	case *ResetStreamFrame:
		return clone(fr)
	case *StopSendingFrame:
		return clone(fr)
	case *CryptoFrame:
		return clone(fr)
	case *NewTokenFrame:
		return clone(fr)
	case *StreamFrame:
		return clone(fr)
	case *MaxDataFrame:
		return clone(fr)
	case *MaxStreamDataFrame:
		return clone(fr)
	case *MaxStreamsFrame:
		return clone(fr)
	case *DataBlockedFrame:
		return clone(fr)
	case *StreamDataBlockedFrame:
		return clone(fr)
	case *StreamsBlockedFrame:
		return clone(fr)
	case *NewConnectionIDFrame:
		return clone(fr)
	case *RetireConnectionIDFrame:
		return clone(fr)
	case *PathChallengeFrame:
		return clone(fr)
	case *PathResponseFrame:
		return clone(fr)
	case *ConnectionCloseFrame:
		return clone(fr)
	case *HandshakeDoneFrame:
		return clone(fr)
	}
	// No %T here: handing f to fmt would make every caller's iterator
	// escape to the heap.
	panic("quicwire: cloning a frame type FrameIter does not produce")
}

func clone[T any](f *T) *T {
	c := *f
	return &c
}

// ParseFrames decodes all frames in a packet payload into copies that
// outlive the call (see cloneFrame); on a malformed frame it returns
// the frames before it and the error. The connection's receive path
// uses FrameIter directly; this is the allocating convenience for
// tests, the fuzzer and tools.
func ParseFrames(b []byte) ([]Frame, error) {
	var it FrameIter
	it.Reset(b)
	var frames []Frame
	for f := it.Next(); f != nil; f = it.Next() {
		frames = append(frames, cloneFrame(f))
	}
	return frames, it.Err()
}

func errMalformed(what string) error {
	return fmt.Errorf("quicwire: malformed %s frame", what)
}
