package quic

import (
	"time"

	"quicscan/internal/quicwire"
)

// idleTimeoutLocked resolves the effective idle timeout: the minimum
// of the local configuration and the peer's max_idle_timeout transport
// parameter (RFC 9000, Section 10.1).
func (c *Conn) idleTimeoutLocked() time.Duration {
	d := c.cfg.MaxIdleTimeout
	if c.havePeerParams && c.peerParams.MaxIdleTimeout > 0 {
		peer := time.Duration(c.peerParams.MaxIdleTimeout) * time.Millisecond
		if peer < d {
			d = peer
		}
	}
	return d
}

// armIdleTimerLocked moves the idle deadline to the idle period from
// now; a period <= 0 disarms it.
func (c *Conn) armIdleTimerLocked() {
	var at time.Time
	if d := c.idleTimeoutLocked(); d > 0 {
		at = time.Now().Add(d)
	}
	c.setIdleDeadlineLocked(at)
}

// setIdleDeadlineLocked sets the handshake/idle deadline (zero
// disarms it) and re-arms the timer.
func (c *Conn) setIdleDeadlineLocked(at time.Time) {
	c.idleDeadline = at
	c.armTimerLocked()
}

// armTimerLocked points the connection's one timer at the earliest
// armed deadline, or stops it when none is armed. Re-arming is a Reset
// of the same timer, never a new one.
func (c *Conn) armTimerLocked() {
	if c.isClosed() {
		return
	}
	next := earlier(c.idleDeadline, c.ptoDeadline)
	next = earlier(next, c.migrDeadline)
	for _, p := range c.paths {
		next = earlier(next, p.deadline)
	}
	switch {
	case next.IsZero():
		if c.timer != nil {
			c.timer.Stop()
		}
	case c.timer == nil:
		c.timer = time.AfterFunc(time.Until(next), c.onTimer)
	default:
		c.timer.Reset(time.Until(next))
	}
}

// earlier returns the earlier of two deadlines, where zero is unarmed.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// due reports whether the armed deadline at has passed by now.
func due(at, now time.Time) bool { return !at.IsZero() && !now.Before(at) }

// onTimer runs every deadline that is due, in a fixed order, and
// re-arms the timer to the earliest one left. The handshake/idle
// deadline runs first, since a dead connection retransmits nothing;
// then the PTO; then path probes and the migration challenge. There is
// one stale-fire rule for all of them: a deadline that moved after the
// timer fired is simply not due (Stop and Reset cannot recall a
// callback that has already started and is waiting for mu), so a fire
// that finds nothing due only re-arms.
func (c *Conn) onTimer() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.isClosed() {
		return
	}
	now := time.Now()
	if due(c.idleDeadline, now) {
		c.onIdleDeadlineLocked()
		return
	}
	if due(c.ptoDeadline, now) {
		c.ptoDeadline = time.Time{}
		c.onPTOLocked()
	}
	for _, p := range c.paths {
		if due(p.deadline, now) && !c.isClosed() {
			p.deadline = time.Time{}
			c.onPathTimeoutLocked(p, now)
		}
	}
	if due(c.migrDeadline, now) && !c.isClosed() {
		c.sendMigrChallengeLocked(now)
	}
	c.armTimerLocked()
}

// onIdleDeadlineLocked closes the connection at its handshake/idle
// deadline. Before the handshake completes that is the handshake
// deadline; afterwards it is the idle period, which RFC 9000 Section
// 10.1 ends silently — the IdleCloseNotify quirk announces the
// teardown with CONNECTION_CLOSE(NO_ERROR) first.
func (c *Conn) onIdleDeadlineLocked() {
	if !c.handshakeDone {
		if c.hsErr == nil {
			c.hsErr = ErrHandshakeTimeout
		}
		c.closeLocked(ErrHandshakeTimeout)
		return
	}
	if c.policy().IdleCloseNotify {
		c.sendConnectionCloseLocked(&quicwire.ConnectionCloseFrame{
			ErrorCode: uint64(quicwire.NoError), ReasonPhrase: "idle timeout"})
	}
	c.closeLocked(errIdleTimeout)
}

// armPTOLocked moves the retransmission deadline to the current
// backoff interval from now. It is disarmed when retransmission is off
// (MaxPTOs < 0) and, after the handshake, while nothing awaits an ACK.
func (c *Conn) armPTOLocked() {
	c.ptoDeadline = time.Time{}
	if c.cfg.MaxPTOs >= 0 && (!c.handshakeDone || c.anyUnackedLocked()) {
		c.ptoDeadline = time.Now().Add(c.backoff(c.ptoCount))
	}
	c.armTimerLocked()
}

// backoff is the retransmission interval after n expirations: PTO
// doubled n times, capped at MaxPTOBackoff. Path probes and the
// migration challenge back off on the same schedule.
func (c *Conn) backoff(n int) time.Duration {
	d := c.cfg.PTO << min(n, 16)
	if c.cfg.MaxPTOBackoff > 0 && d > c.cfg.MaxPTOBackoff {
		d = c.cfg.MaxPTOBackoff
	}
	return d
}

func (c *Conn) anyUnackedLocked() bool {
	for i := range c.spaces {
		// A dropped space's keys are gone on both sides: its
		// stragglers can never be acknowledged and must not count.
		if c.spaces[i].dropped {
			continue
		}
		if len(c.spaces[i].loss.sent) > 0 {
			return true
		}
	}
	return false
}

// onPTOLocked runs at the retransmission deadline: it re-sends every
// unacknowledged frame and backs off, or gives up once MaxPTOs
// expirations in a row went unanswered.
func (c *Conn) onPTOLocked() {
	if c.ptoCount >= c.cfg.MaxPTOs {
		// Retransmission budget exhausted. A handshake that could not
		// be repaired in MaxPTOs rounds is dead: fail fast with the
		// timeout outcome instead of waiting out the deadline. After
		// the handshake the idle deadline signals failure instead.
		if !c.handshakeDone {
			if c.hsErr == nil {
				c.hsErr = ErrHandshakeTimeout
			}
			c.closeLocked(ErrHandshakeTimeout)
		}
		return
	}
	c.ptoCount++
	mPTOFired.Inc()
	if c.trace != nil {
		c.trace.Event("pto_fired", "count", c.ptoCount)
	}
	resent := false
	for i := range c.spaces {
		sp := &c.spaces[i]
		if sp.dropped || sp.sendKeys == nil {
			continue
		}
		if len(sp.loss.frames) > 0 {
			sp.outFrames = sp.loss.takeUnacked(sp.outFrames)
			resent = true
		}
	}
	switch {
	case resent:
		c.stats.Retransmits++
		if c.trace != nil {
			c.trace.Event("retransmit", "pto_count", c.ptoCount)
		}
		c.sendPendingLocked()
	case c.isClient && !c.handshakeDone:
		// Nothing of ours awaits an ACK, yet the server's flight has
		// not arrived: it was lost, or went to an address this socket
		// no longer has. Only a probe from here can tell the server
		// (RFC 9002, Section 6.2.2.1): a Handshake PING once there are
		// Handshake keys, an Initial one before.
		sp := &c.spaces[spaceHandshake]
		if sp.dropped || sp.sendKeys == nil {
			sp = &c.spaces[spaceInitial]
		}
		sp.outFrames = append(sp.outFrames, &quicwire.PingFrame{})
		c.sendPendingLocked()
	default:
		c.armPTOLocked()
	}
}
