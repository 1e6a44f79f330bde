package quic

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"hash"
	"net"
	"sync"

	"quicscan/internal/quicwire"
)

// Stateless resets (RFC 9000, Section 10.3) let an endpoint that has
// lost connection state tell a peer to stop sending: a datagram
// indistinguishable from a short-header packet whose final 16 bytes
// are a token the peer learned in the stateless_reset_token transport
// parameter.

// statelessResetTokenLen is the token size.
const statelessResetTokenLen = 16

// minResetTriggerSize avoids reset loops: only datagrams at least this
// large elicit a stateless reset (RFC 9000, Section 10.3.3).
const minResetTriggerSize = 43

// resetKeys derives per-connection-ID reset tokens from a static key:
// token = HMAC-SHA256(key, connection ID), truncated. Every endpoint,
// client or server, has one and mints a token per connection ID it
// issues (a server three per connection, a client two), so the keyed
// HMAC is built once and reset per token rather than rebuilt.
type resetKeys struct {
	once sync.Once

	mu  sync.Mutex // guards mac and sum; connections mint concurrently
	mac hash.Hash
	sum [sha256.Size]byte
}

func (r *resetKeys) init() {
	r.once.Do(func() {
		var key [32]byte
		if _, err := rand.Read(key[:]); err != nil {
			panic("quic: reading randomness: " + err.Error())
		}
		r.mac = hmac.New(sha256.New, key[:])
	})
}

// tokenFor computes the stateless reset token for a connection ID.
func (r *resetKeys) tokenFor(cid quicwire.ConnID) [statelessResetTokenLen]byte {
	r.init()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mac.Reset()
	r.mac.Write(cid)
	var out [statelessResetTokenLen]byte
	copy(out[:], r.mac.Sum(r.sum[:0]))
	return out
}

// sendStatelessReset emits a reset for the connection ID an orphan
// short-header packet was addressed to.
func (l *Listener) sendStatelessReset(dcid quicwire.ConnID, from net.Addr, triggerLen int) {
	if triggerLen < minResetTriggerSize {
		return
	}
	token := l.reset.tokenFor(dcid)
	// The reset must look like a valid short header packet with random
	// content: 0b01 fixed bits plus randomness, then unpredictable
	// bytes, ending in the token. Keep it shorter than the trigger.
	pkt := make([]byte, min(triggerLen-1, 41))
	if _, err := rand.Read(pkt); err != nil {
		return
	}
	pkt[0] = (pkt[0] & 0x3f) | 0x40
	copy(pkt[len(pkt)-statelessResetTokenLen:], token[:])
	l.socks[0].WriteTo(pkt, from)
}

// errStatelessReset is the error a connection dies with when the peer
// signals a stateless reset.
var errStatelessReset = errors.New("quic: received stateless reset")

// isStatelessResetLocked checks an undecryptable datagram against
// every reset token the peer announced: the handshake transport
// parameter and tokens carried in NEW_CONNECTION_ID frames.
//
// Token comparison must be constant-time (RFC 9000, Section 10.3.1):
// an attacker who can time the comparison of guessed tokens against a
// connection's real one could forge a reset. subtle.ConstantTimeCompare
// provides that; every token check below goes through it, never
// bytes.Equal.
func (c *Conn) isStatelessResetLocked(data []byte) bool {
	// A stateless reset is at least 21 bytes on the wire (RFC 9000,
	// Section 10.3: 5 bytes of short-header-shaped randomness plus the
	// 16-byte token); anything shorter cannot carry a token and is
	// ignored outright.
	if len(data) < 21 {
		return false
	}
	tail := data[len(data)-statelessResetTokenLen:]
	if c.havePeerParams && len(c.peerParams.StatelessResetToken) == statelessResetTokenLen &&
		subtle.ConstantTimeCompare(tail, c.peerParams.StatelessResetToken) == 1 {
		return true
	}
	for _, p := range c.peerConnIDs {
		if subtle.ConstantTimeCompare(tail, p.token[:]) == 1 {
			return true
		}
	}
	return false
}
