package quicwire

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

func roundTripFrame(t *testing.T, f Frame) Frame {
	t.Helper()
	b := f.Append(nil)
	got, n, err := parseFrame(b)
	if err != nil {
		t.Fatalf("parseFrame(%x): %v", b, err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	return got
}

func TestFrameRoundTrips(t *testing.T) {
	frames := []Frame{
		&PingFrame{},
		&AckFrame{Ranges: []AckRange{{Smallest: 5, Largest: 10}}, DelayRaw: 20},
		&AckFrame{Ranges: []AckRange{{Smallest: 90, Largest: 100}, {Smallest: 40, Largest: 50}, {Smallest: 0, Largest: 10}}, DelayRaw: 0},
		&ResetStreamFrame{StreamID: 4, ErrorCode: 9, FinalSize: 1000},
		&StopSendingFrame{StreamID: 8, ErrorCode: 0x10c},
		&CryptoFrame{Offset: 1200, Data: []byte("client hello bytes")},
		&NewTokenFrame{Token: []byte{1, 2, 3, 4}},
		&StreamFrame{StreamID: 0, Data: []byte("GET /")},
		&StreamFrame{StreamID: 3, Offset: 77, Data: []byte("x"), Fin: true},
		&MaxDataFrame{MaximumData: 1 << 20},
		&MaxStreamDataFrame{StreamID: 4, MaximumData: 1 << 16},
		&MaxStreamsFrame{Bidi: true, MaximumStreams: 100},
		&MaxStreamsFrame{Bidi: false, MaximumStreams: 3},
		&DataBlockedFrame{Limit: 500},
		&StreamDataBlockedFrame{StreamID: 8, Limit: 900},
		&StreamsBlockedFrame{Bidi: true, Limit: 16},
		&StreamsBlockedFrame{Bidi: false, Limit: 1},
		&NewConnectionIDFrame{SequenceNumber: 3, RetirePriorTo: 1, ConnectionID: ConnID{9, 9, 9, 9}, StatelessResetToken: [16]byte{1, 2, 3}},
		&RetireConnectionIDFrame{SequenceNumber: 2},
		&PathChallengeFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&PathResponseFrame{Data: [8]byte{8, 7, 6, 5, 4, 3, 2, 1}},
		&ConnectionCloseFrame{ErrorCode: uint64(CryptoError0x128), FrameType: 0, ReasonPhrase: "handshake failure"},
		&ConnectionCloseFrame{IsApp: true, ErrorCode: 0x0100, ReasonPhrase: "h3 no error"},
		&HandshakeDoneFrame{},
	}
	for _, f := range frames {
		got := roundTripFrame(t, f)
		if !reflect.DeepEqual(f, got) {
			t.Errorf("round trip %T: got %+v want %+v", f, got, f)
		}
	}
}

func TestPaddingCoalescing(t *testing.T) {
	b := (&PaddingFrame{Count: 17}).Append(nil)
	if len(b) != 17 {
		t.Fatalf("padding length %d", len(b))
	}
	f, n, err := parseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := f.(*PaddingFrame)
	if !ok || p.Count != 17 || n != 17 {
		t.Errorf("got %+v consumed %d", f, n)
	}
}

func TestImplicitLengthStream(t *testing.T) {
	f := &StreamFrame{StreamID: 4, Data: []byte("tail data"), Implicit: true, Fin: true}
	b := f.Append(nil)
	got, n, err := parseFrame(b)
	if err != nil || n != len(b) {
		t.Fatalf("parse: %v (n=%d)", err, n)
	}
	sf := got.(*StreamFrame)
	if !sf.Implicit || !sf.Fin || !bytes.Equal(sf.Data, f.Data) {
		t.Errorf("got %+v", sf)
	}
}

func TestAckFrameAcks(t *testing.T) {
	f := &AckFrame{Ranges: []AckRange{{Smallest: 10, Largest: 20}, {Smallest: 0, Largest: 5}}}
	for _, pn := range []uint64{0, 5, 10, 20} {
		if !f.Acks(pn) {
			t.Errorf("Acks(%d) = false", pn)
		}
	}
	for _, pn := range []uint64{6, 9, 21} {
		if f.Acks(pn) {
			t.Errorf("Acks(%d) = true", pn)
		}
	}
}

func TestParseFramesSequence(t *testing.T) {
	var b []byte
	b = (&CryptoFrame{Data: []byte("hello")}).Append(b)
	b = (&PaddingFrame{Count: 3}).Append(b)
	b = (&PingFrame{}).Append(b)
	frames, err := ParseFrames(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("got %d frames", len(frames))
	}
	if _, ok := frames[0].(*CryptoFrame); !ok {
		t.Errorf("frame 0 is %T", frames[0])
	}
	if _, ok := frames[2].(*PingFrame); !ok {
		t.Errorf("frame 2 is %T", frames[2])
	}
}

func TestParseFrameErrors(t *testing.T) {
	cases := [][]byte{
		{},                             // empty
		{0x06},                         // CRYPTO missing fields
		{0x02, 0x05, 0x00, 0x00},       // ACK missing first range
		{0x02, 0x05, 0x00, 0x00, 0x06}, // ACK first range > largest
		{0x18, 0x01, 0x00, 0x00},       // NEW_CONNECTION_ID zero-length CID
		{0x1a, 1, 2, 3},                // PATH_CHALLENGE truncated
		AppendVarint(nil, 0x30),        // unknown frame type
	}
	for _, b := range cases {
		if _, _, err := parseFrame(b); err == nil {
			t.Errorf("parseFrame(%x) succeeded", b)
		}
	}
}

func TestAckMalformedGap(t *testing.T) {
	// Range count 1 with a gap that would underflow below zero.
	var b []byte
	b = AppendVarint(b, frameTypeAck)
	b = AppendVarint(b, 5) // largest
	b = AppendVarint(b, 0) // delay
	b = AppendVarint(b, 1) // range count
	b = AppendVarint(b, 2) // first range -> smallest = 3
	b = AppendVarint(b, 5) // gap 5 -> largest would underflow
	b = AppendVarint(b, 0)
	if _, _, err := parseFrame(b); err == nil {
		t.Error("underflowing ACK gap accepted")
	}
}

func TestAckEliciting(t *testing.T) {
	if AckEliciting(&AckFrame{Ranges: []AckRange{{0, 0}}}) {
		t.Error("ACK should not be ack-eliciting")
	}
	if AckEliciting(&PaddingFrame{Count: 1}) {
		t.Error("PADDING should not be ack-eliciting")
	}
	if AckEliciting(&ConnectionCloseFrame{}) {
		t.Error("CONNECTION_CLOSE should not be ack-eliciting")
	}
	if !AckEliciting(&PingFrame{}) || !AckEliciting(&CryptoFrame{}) || !AckEliciting(&StreamFrame{}) {
		t.Error("PING/CRYPTO/STREAM must be ack-eliciting")
	}
}

// TestFrameFuzzRoundTrip generates random well-formed frames and checks
// that parse(append(f)) == f, a property-style test over the full frame
// vocabulary.
func TestFrameFuzzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 24))
	rv := func() uint64 { return rng.Uint64() % (maxVarint + 1) }
	rbytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	for i := 0; i < 2000; i++ {
		var f Frame
		switch rng.IntN(10) {
		case 0:
			f = &CryptoFrame{Offset: rv(), Data: rbytes(rng.IntN(64))}
		case 1:
			f = &StreamFrame{StreamID: rv(), Offset: 1 + rv()%1000, Data: rbytes(rng.IntN(64)), Fin: rng.IntN(2) == 0}
		case 2:
			largest := rv() % (1 << 40)
			first := rng.Uint64() % (largest + 1)
			f = &AckFrame{Ranges: []AckRange{{Smallest: largest - first, Largest: largest}}, DelayRaw: rv() % 10000}
		case 3:
			f = &ResetStreamFrame{StreamID: rv(), ErrorCode: rv(), FinalSize: rv()}
		case 4:
			f = &MaxStreamDataFrame{StreamID: rv(), MaximumData: rv()}
		case 5:
			f = &NewTokenFrame{Token: rbytes(1 + rng.IntN(40))}
		case 6:
			f = &ConnectionCloseFrame{IsApp: rng.IntN(2) == 0, ErrorCode: rv(), ReasonPhrase: string(rbytes(rng.IntN(20)))}
		case 7:
			f = &MaxStreamsFrame{Bidi: rng.IntN(2) == 0, MaximumStreams: rv()}
		case 8:
			nc := &NewConnectionIDFrame{SequenceNumber: rv(), RetirePriorTo: 0, ConnectionID: ConnID(rbytes(1 + rng.IntN(20)))}
			copy(nc.StatelessResetToken[:], rbytes(16))
			f = nc
		default:
			f = &StopSendingFrame{StreamID: rv(), ErrorCode: rv()}
		}
		got := roundTripFrame(t, f)
		// Zero-length random data decodes as nil vs empty slice; normalize.
		normalize := func(fr Frame) {
			switch x := fr.(type) {
			case *CryptoFrame:
				if len(x.Data) == 0 {
					x.Data = nil
				}
			case *StreamFrame:
				if len(x.Data) == 0 {
					x.Data = nil
				}
			case *NewTokenFrame:
				if len(x.Token) == 0 {
					x.Token = nil
				}
			}
		}
		normalize(f)
		normalize(got)
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("iteration %d: round trip %T mismatch:\n got %+v\nwant %+v", i, f, got, f)
		}
	}
}

func TestTransportErrorStrings(t *testing.T) {
	if CryptoError0x128.String() != "CRYPTO_ERROR(0x128)" {
		t.Errorf("CryptoError0x128 = %s", CryptoError0x128)
	}
	if !CryptoError0x128.isCryptoError() {
		t.Error("0x128 crypto error classification broken")
	}
	if NoError.String() != "NO_ERROR" || ProtocolViolation.String() != "PROTOCOL_VIOLATION" {
		t.Error("error names wrong")
	}
	if NoError.isCryptoError() {
		t.Error("NoError misclassified")
	}
	if CryptoError(40) != CryptoError0x128 {
		t.Error("CryptoError(40) != 0x128")
	}
	e := &TransportErrorError{Code: CryptoError0x128, Reason: "bad", Remote: true}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}

// everyFrame is one well-formed instance of each frame type.
func everyFrame() []Frame {
	return []Frame{
		&PaddingFrame{Count: 2},
		&PingFrame{},
		&AckFrame{Ranges: []AckRange{{Smallest: 9, Largest: 12}, {Smallest: 1, Largest: 3}}, DelayRaw: 4},
		&ResetStreamFrame{StreamID: 4, ErrorCode: 7, FinalSize: 100},
		&StopSendingFrame{StreamID: 8, ErrorCode: 9},
		&CryptoFrame{Offset: 3, Data: []byte("crypto")},
		&NewTokenFrame{Token: []byte("token")},
		&StreamFrame{StreamID: 4, Offset: 5, Data: []byte("stream"), Fin: true},
		&MaxDataFrame{MaximumData: 1 << 20},
		&MaxStreamDataFrame{StreamID: 4, MaximumData: 1 << 16},
		&MaxStreamsFrame{Bidi: true, MaximumStreams: 10},
		&MaxStreamsFrame{MaximumStreams: 11},
		&DataBlockedFrame{Limit: 1},
		&StreamDataBlockedFrame{StreamID: 4, Limit: 2},
		&StreamsBlockedFrame{Bidi: true, Limit: 3},
		&StreamsBlockedFrame{Limit: 4},
		&NewConnectionIDFrame{SequenceNumber: 2, RetirePriorTo: 1, ConnectionID: ConnID{1, 2, 3, 4, 5, 6, 7, 8}, StatelessResetToken: [16]byte{9}},
		&RetireConnectionIDFrame{SequenceNumber: 1},
		&PathChallengeFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&PathResponseFrame{Data: [8]byte{8, 7, 6, 5, 4, 3, 2, 1}},
		&ConnectionCloseFrame{ErrorCode: 0x0a, FrameType: 0x06, ReasonPhrase: "transport"},
		&ConnectionCloseFrame{IsApp: true, ErrorCode: 0x100, ReasonPhrase: "app"},
		&HandshakeDoneFrame{},
	}
}

// TestFrameIterReusesStorage: the iterator yields every frame type in
// order, reuses one value per type (the second STREAMS_BLOCKED
// overwrites the first), and — once its ACK range storage exists —
// decodes a payload without allocating (CONNECTION_CLOSE aside, whose
// reason phrase is a string).
func TestFrameIterReusesStorage(t *testing.T) {
	want := everyFrame()
	var payload, quiet []byte
	for _, f := range want {
		payload = f.Append(payload)
		if _, cc := f.(*ConnectionCloseFrame); !cc {
			quiet = f.Append(quiet)
		}
	}
	var it FrameIter
	it.Reset(payload)
	seen := map[Frame]bool{}
	for i, w := range want {
		got := it.Next()
		if got == nil {
			t.Fatalf("frame %d: iterator ended early: %v", i, it.Err())
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("frame %d: got %#v, want %#v", i, got, w)
		}
		seen[got] = true
	}
	if it.Next() != nil || it.Err() != nil {
		t.Fatalf("iterator did not end cleanly: %v", it.Err())
	}
	if len(seen) != 20 {
		t.Errorf("%d distinct frame values for 20 frame types", len(seen))
	}
	allocs := testing.AllocsPerRun(100, func() {
		it.Reset(quiet)
		for it.Next() != nil {
		}
	})
	if allocs != 0 || it.Err() != nil {
		t.Errorf("decoding allocates %.0f times per payload (err %v)", allocs, it.Err())
	}
}

// TestAllowedIn spells out RFC 9000 Section 12.4, Table 3, column by
// column (I, H, 0, 1), for every frame type.
func TestAllowedIn(t *testing.T) {
	packets := []PacketType{PacketInitial, PacketHandshake, Packet0RTT, Packet1RTT}
	want := map[string]string{ // the table's "Pkts" column
		"*quicwire.PaddingFrame":            "IH01",
		"*quicwire.PingFrame":               "IH01",
		"*quicwire.AckFrame":                "IH_1",
		"*quicwire.ResetStreamFrame":        "__01",
		"*quicwire.StopSendingFrame":        "__01",
		"*quicwire.CryptoFrame":             "IH_1",
		"*quicwire.NewTokenFrame":           "___1",
		"*quicwire.StreamFrame":             "__01",
		"*quicwire.MaxDataFrame":            "__01",
		"*quicwire.MaxStreamDataFrame":      "__01",
		"*quicwire.MaxStreamsFrame":         "__01",
		"*quicwire.DataBlockedFrame":        "__01",
		"*quicwire.StreamDataBlockedFrame":  "__01",
		"*quicwire.StreamsBlockedFrame":     "__01",
		"*quicwire.NewConnectionIDFrame":    "__01",
		"*quicwire.RetireConnectionIDFrame": "__01",
		"*quicwire.PathChallengeFrame":      "__01",
		"*quicwire.PathResponseFrame":       "___1",
		"*quicwire.ConnectionCloseFrame":    "IH01", // 0x1c; 0x1d is __01
		"*quicwire.HandshakeDoneFrame":      "___1",
	}
	for _, f := range everyFrame() {
		name := fmt.Sprintf("%T", f)
		row := want[name]
		if cc, ok := f.(*ConnectionCloseFrame); ok && cc.IsApp {
			row = "__01"
		}
		for i, pt := range packets {
			if got := AllowedIn(f, pt); got != (row[i] != '_') {
				t.Errorf("AllowedIn(%s, %v) = %t, table says %q", name, pt, got, row)
			}
		}
	}
}

// parseFrame decodes a single frame from the front of b, returning a
// copy of it (see cloneFrame) and the number of bytes consumed.
func parseFrame(b []byte) (Frame, int, error) {
	var it FrameIter
	it.Reset(b)
	f := it.Next()
	if f == nil {
		if err := it.Err(); err != nil {
			return nil, 0, err
		}
		return nil, 0, ErrTruncated
	}
	return cloneFrame(f), it.r.off, nil
}
