package quic

import (
	"quicscan/internal/quicwire"
)

// ackManager tracks received packet numbers in one packet number space
// and produces ACK frames.
type ackManager struct {
	ranges     []quicwire.AckRange // sorted descending by Largest
	largest    int64               // largest received, -1 if none
	ackPending bool                // an ack-eliciting packet awaits acknowledgment

	// In-order delivery keeps one range; ranges starts out backed by
	// this array so the first packet of a space allocates nothing.
	rangesArr [1]quicwire.AckRange
}

// init resets a zero ackManager to its starting sentinels.
func (m *ackManager) init() {
	m.largest = -1
	m.ranges = m.rangesArr[:0]
}

// onReceived records an incoming packet. ackEliciting marks whether
// the packet contained ack-eliciting frames. It reports whether the
// packet is a duplicate.
func (m *ackManager) onReceived(pn uint64, ackEliciting bool) (duplicate bool) {
	for i, r := range m.ranges {
		if pn >= r.Smallest && pn <= r.Largest {
			return true
		}
		// Extend an adjacent range.
		if pn+1 == r.Smallest {
			m.ranges[i].Smallest = pn
			m.mergeFrom(i)
			m.finish(pn, ackEliciting)
			return false
		}
		if pn == r.Largest+1 {
			m.ranges[i].Largest = pn
			if i > 0 {
				m.mergeFrom(i - 1)
			}
			m.finish(pn, ackEliciting)
			return false
		}
	}
	// Insert a new range, keeping descending order.
	idx := len(m.ranges)
	for i, r := range m.ranges {
		if pn > r.Largest {
			idx = i
			break
		}
	}
	m.ranges = append(m.ranges, quicwire.AckRange{})
	copy(m.ranges[idx+1:], m.ranges[idx:])
	m.ranges[idx] = quicwire.AckRange{Smallest: pn, Largest: pn}
	m.finish(pn, ackEliciting)
	return false
}

// mergeFrom merges ranges[i] with ranges[i+1] if they became adjacent.
func (m *ackManager) mergeFrom(i int) {
	if i+1 < len(m.ranges) && m.ranges[i].Smallest <= m.ranges[i+1].Largest+1 {
		m.ranges[i].Smallest = m.ranges[i+1].Smallest
		m.ranges = append(m.ranges[:i+1], m.ranges[i+2:]...)
	}
}

func (m *ackManager) finish(pn uint64, ackEliciting bool) {
	if int64(pn) > m.largest {
		m.largest = int64(pn)
	}
	if ackEliciting {
		m.ackPending = true
	}
	// Bound state: keep at most 32 ranges (oldest dropped).
	if len(m.ranges) > 32 {
		m.ranges = m.ranges[:32]
	}
}

// needsAck reports whether an ACK frame should be sent.
func (m *ackManager) needsAck() bool { return m.ackPending }

// buildAck fills f with an ACK covering everything received and
// reports whether there was anything to acknowledge. Calling it clears
// the pending flag. f's ranges alias the manager's: the frame is for
// serializing into the packet being built, and is invalid after the
// next onReceived.
func (m *ackManager) buildAck(f *quicwire.AckFrame) bool {
	if len(m.ranges) == 0 {
		return false
	}
	m.ackPending = false
	*f = quicwire.AckFrame{Ranges: m.ranges}
	return true
}

// sentPacket records an outgoing ack-eliciting packet for loss
// recovery: its number and how many entries of lossState.frames are
// its.
type sentPacket struct {
	pn uint64
	n  int
}

// lossState tracks unacknowledged packets in one space. The frames to
// retransmit on loss are kept in one list for the whole space — each
// packet's run back to back, in the order of sent — so recording a
// packet appends to two slices that stop growing after the first few
// packets instead of allocating a list per packet.
type lossState struct {
	sent         []sentPacket
	frames       []quicwire.Frame
	largestAcked int64

	// Most spaces never have more in flight than this, so the lists
	// above start out backed by the lossState itself.
	sentArr   [2]sentPacket
	framesArr [4]quicwire.Frame
}

// init resets a zero lossState to its starting sentinels.
func (l *lossState) init() {
	l.largestAcked = -1
	l.sent = l.sentArr[:0]
	l.frames = l.framesArr[:0]
}

// onSent records the ack-eliciting frames of packet pn. The frame
// values are retained until the packet is acknowledged or declared
// lost; the frames slice itself is not.
func (l *lossState) onSent(pn uint64, frames []quicwire.Frame) {
	n := 0
	for _, f := range frames {
		if quicwire.AckEliciting(f) {
			l.frames = append(l.frames, f)
			n++
		}
	}
	if n > 0 {
		l.sent = append(l.sent, sentPacket{pn: pn, n: n})
	}
}

// onAck removes acknowledged packets and returns whether anything new
// was acknowledged.
func (l *lossState) onAck(ack *quicwire.AckFrame) bool {
	if int64(ack.Ranges[0].Largest) > l.largestAcked {
		l.largestAcked = int64(ack.Ranges[0].Largest)
	}
	anyNew := false
	sent, frames := l.sent[:0], l.frames[:0]
	off := 0
	for _, sp := range l.sent {
		run := l.frames[off : off+sp.n]
		off += sp.n
		if ack.Acks(sp.pn) {
			anyNew = true
		} else {
			sent = append(sent, sp)
			frames = append(frames, run...)
		}
	}
	clear(l.frames[len(frames):]) // acknowledged frames must not stay reachable
	l.sent, l.frames = sent, frames
	return anyNew
}

// takeUnacked appends all frames awaiting acknowledgment to dst, for
// retransmission, and clears the sent list (the frames will be
// re-recorded when re-sent).
func (l *lossState) takeUnacked(dst []quicwire.Frame) []quicwire.Frame {
	dst = append(dst, l.frames...)
	clear(l.frames)
	l.sent, l.frames = l.sent[:0], l.frames[:0]
	return dst
}
