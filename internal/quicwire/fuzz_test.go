package quicwire

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzVarint: ParseVarint must never panic, and every accepted
// encoding must survive a re-encode at its original width.
func FuzzVarint(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x3f})
	f.Add(AppendVarint(nil, 16383))
	f.Add(AppendVarint(nil, 1<<29))
	f.Add(AppendVarint(nil, (1<<62)-1))
	f.Add(AppendVarintWithLen(nil, 5, 8)) // non-minimal encoding
	f.Add([]byte{0xc0})                   // truncated 8-byte form
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := ParseVarint(b)
		if err != nil {
			return
		}
		if n < 1 || n > 8 || n > len(b) {
			t.Fatalf("ParseVarint(%x) = (%d, n=%d) out of range", b, v, n)
		}
		enc := AppendVarintWithLen(nil, v, n)
		v2, n2, err := ParseVarint(enc)
		if err != nil || v2 != v || n2 != n {
			t.Fatalf("re-encode of %d at width %d: got (%d, %d, %v)", v, n, v2, n2, err)
		}
		if !bytes.Equal(enc, b[:n]) {
			t.Fatalf("width-%d encoding of %d = %x, input was %x", n, v, enc, b[:n])
		}
	})
}

// FuzzParseHeader throws arbitrary bytes at both header parsers. An
// accepted long header must re-parse identically after AppendLongHeader
// (modulo the packet-number field, which Parse does not decrypt).
func FuzzParseHeader(f *testing.F) {
	// A forced-VN Initial shape, a v1 Initial, a VN packet, a short header.
	f.Add([]byte{0xc0 | 0x40, 0x1a, 0x1a, 0x1a, 0x1a, 2, 9, 9, 2, 7, 7, 0, 0x41, 0x00})
	hdr := &Header{Type: PacketInitial, Version: Version1, DstID: ConnID{1, 2, 3, 4, 5, 6, 7, 8}, SrcID: ConnID{9, 9}, PacketNumberLen: 2}
	pkt, _ := AppendLongHeader(nil, hdr, 32)
	f.Add(pkt)
	f.Add(AppendVersionNegotiation(nil, ConnID{1}, ConnID{2}, 0x5a, []Version{VersionDraft29, Version1}))
	short, _ := AppendShortHeader(nil, ConnID{1, 2, 3, 4, 5, 6, 7, 8}, 42, 2, false)
	f.Add(short)
	f.Add([]byte{0x80}) // long header bit, nothing else
	f.Fuzz(func(t *testing.T, b []byte) {
		if h, n, err := ParseLongHeader(b); err == nil {
			if n < 0 || n > len(b) {
				t.Fatalf("ParseLongHeader consumed %d of %d bytes", n, len(b))
			}
			if len(h.DstID) > 255 || len(h.SrcID) > 255 {
				t.Fatalf("connection ID longer than a length byte: %d/%d", len(h.DstID), len(h.SrcID))
			}
		}
		if dst, n, err := ParseShortHeader(b, 8); err == nil {
			if n < 0 || n > len(b) {
				t.Fatalf("ParseShortHeader consumed %d of %d bytes", n, len(b))
			}
			if len(dst) != 8 {
				t.Fatalf("short header CID length %d, asked for 8", len(dst))
			}
		}
	})
}

// FuzzParseFrames: arbitrary payloads must parse without panicking;
// FrameIter, snapshotted frame by frame before the next Next overwrites
// its storage, must agree with the copies ParseFrames returns, error
// included; and every accepted frame sequence must survive an
// append/re-parse round trip.
func FuzzParseFrames(f *testing.F) {
	f.Add([]byte{byte(frameTypePing)})
	f.Add((&CryptoFrame{Offset: 0, Data: []byte("hello")}).Append(nil))
	f.Add((&AckFrame{Ranges: []AckRange{{Largest: 10, Smallest: 8}}, DelayRaw: 1}).Append(nil))
	f.Add((&StreamFrame{StreamID: 4, Offset: 7, Fin: true, Data: []byte("x")}).Append(nil))
	f.Add((&ConnectionCloseFrame{ErrorCode: 0x128, ReasonPhrase: "tls"}).Append(nil))
	f.Add((&NewConnectionIDFrame{SequenceNumber: 1, ConnectionID: ConnID{1, 2, 3, 4}}).Append(nil))
	f.Add((&RetireConnectionIDFrame{SequenceNumber: 3}).Append(nil))
	f.Add((&PathChallengeFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}).Append(nil))
	f.Add((&PathResponseFrame{Data: [8]byte{8, 7, 6, 5, 4, 3, 2, 1}}).Append(nil))
	f.Add((&NewTokenFrame{Token: []byte("resumption-token")}).Append(nil))
	f.Add([]byte{0x07})       // NEW_TOKEN with missing length
	f.Add([]byte{0x02, 0xff}) // truncated ACK
	f.Add([]byte{0x1a})       // truncated PATH_CHALLENGE
	f.Fuzz(func(t *testing.T, b []byte) {
		frames, err := ParseFrames(b)
		var it FrameIter
		it.Reset(b)
		n := 0
		for fr := it.Next(); fr != nil; fr = it.Next() {
			if n >= len(frames) {
				t.Fatalf("iterator yields more than ParseFrames' %d frames (input %x)", len(frames), b)
			}
			// %#v follows the pointer and prints slices by value: a deep copy.
			if got, want := fmt.Sprintf("%#v", fr), fmt.Sprintf("%#v", frames[n]); got != want {
				t.Fatalf("frame %d: iterator %s, ParseFrames %s (input %x)", n, got, want, b)
			}
			n++
		}
		if n != len(frames) || fmt.Sprint(it.Err()) != fmt.Sprint(err) {
			t.Fatalf("iterator: %d frames, %v; ParseFrames: %d frames, %v (input %x)", n, it.Err(), len(frames), err, b)
		}
		if err != nil {
			return
		}
		var enc []byte
		for _, fr := range frames {
			enc = fr.Append(enc)
		}
		again, err := ParseFrames(enc)
		if err != nil {
			t.Fatalf("re-parse of re-encoded frames failed: %v (input %x, enc %x)", err, b, enc)
		}
		// PADDING runs collapse into one frame; otherwise counts match.
		if len(again) > len(frames) {
			t.Fatalf("re-parse grew the frame count: %d -> %d", len(frames), len(again))
		}
	})
}
