package quic

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"quicscan/internal/quiccrypto"
	"quicscan/internal/quicwire"
)

// retryMinter issues and validates address-validation tokens for
// Retry packets (RFC 9000, Section 8.1). Tokens bind the client
// address and the original destination connection ID under an
// HMAC so the server stays stateless until a validated Initial
// arrives.
type retryMinter struct {
	once sync.Once
	key  [32]byte
}

func (m *retryMinter) init() {
	m.once.Do(func() {
		if _, err := rand.Read(m.key[:]); err != nil {
			panic("quic: reading randomness: " + err.Error())
		}
	})
}

// tokenLifetime bounds how long a Retry token stays valid.
const tokenLifetime = 30 * time.Second

// newTokenLifetime bounds NEW_TOKEN tokens. They cover a rescan visit
// rather than one handshake's round trip, so they live much longer
// (RFC 9000 §8.1.3 leaves the lifetime to the server).
const newTokenLifetime = 10 * time.Minute

// Token type tags. Retry tokens carry the original destination
// connection ID for transport-parameter authentication; NEW_TOKEN
// tokens prove only address reachability from an earlier connection
// and must be distinguishable on receipt (RFC 9000, Section 8.1.1).
const (
	tokenTypeRetry    = 0x01
	tokenTypeNewToken = 0x02
)

// tokenBinding is the client identity a token of the given type is
// bound to. A Retry token comes back within one round trip from the
// very socket that triggered it, so it binds IP and port. A NEW_TOKEN
// token is replayed on a later connection, which a scanner's socket
// pool (or any NAT) dials from a different source port, so it binds
// the IP only.
func tokenBinding(typ byte, addr net.Addr) string {
	if typ == tokenTypeNewToken {
		if ap := addrPortOf(addr); ap.IsValid() {
			return ap.Addr().String()
		}
	}
	return addr.String()
}

// mint builds a Retry token for (addr, odcid).
func (m *retryMinter) mint(addr net.Addr, odcid quicwire.ConnID) []byte {
	m.init()
	token := []byte{tokenTypeRetry}
	token = binary.BigEndian.AppendUint64(token, uint64(time.Now().Unix()))
	token = append(token, byte(len(odcid)))
	token = append(token, odcid...)
	mac := hmac.New(sha256.New, m.key[:])
	mac.Write(token)
	mac.Write([]byte(tokenBinding(tokenTypeRetry, addr)))
	return mac.Sum(token)
}

// mintResumption builds a NEW_TOKEN token for addr, carrying no
// connection ID: the next connection it validates has no Retry
// exchange to authenticate.
func (m *retryMinter) mintResumption(addr net.Addr) []byte {
	m.init()
	token := []byte{tokenTypeNewToken}
	token = binary.BigEndian.AppendUint64(token, uint64(time.Now().Unix()))
	mac := hmac.New(sha256.New, m.key[:])
	mac.Write(token)
	mac.Write([]byte(tokenBinding(tokenTypeNewToken, addr)))
	return mac.Sum(token)
}

// validate checks a token of either type. For Retry tokens it returns
// the original destination connection ID the token was minted for;
// for NEW_TOKEN tokens the ID is nil (address validation succeeded,
// but there is no Retry exchange to authenticate, so the handshake
// proceeds without retry_source_connection_id).
func (m *retryMinter) validate(addr net.Addr, token []byte) (quicwire.ConnID, bool) {
	m.init()
	if len(token) < 1+8+sha256.Size {
		return nil, false
	}
	body := token[:len(token)-sha256.Size]
	sum := token[len(token)-sha256.Size:]
	mac := hmac.New(sha256.New, m.key[:])
	mac.Write(body)
	mac.Write([]byte(tokenBinding(body[0], addr)))
	if !hmac.Equal(sum, mac.Sum(nil)) {
		return nil, false
	}
	issued := time.Unix(int64(binary.BigEndian.Uint64(body[1:9])), 0)
	switch body[0] {
	case tokenTypeRetry:
		if time.Since(issued) > tokenLifetime {
			return nil, false
		}
		if len(body) < 1+8+1 {
			return nil, false
		}
		odcidLen := int(body[9])
		if len(body) != 1+8+1+odcidLen {
			return nil, false
		}
		// Copy: body aliases the incoming datagram, which lives in a
		// pooled read buffer valid only for the current call stack.
		return append(quicwire.ConnID(nil), body[10:10+odcidLen]...), true
	case tokenTypeNewToken:
		if time.Since(issued) > newTokenLifetime {
			return nil, false
		}
		if len(body) != 1+8 {
			return nil, false
		}
		return nil, true
	}
	return nil, false
}

// sendRetry answers a token-less Initial with a Retry packet.
func (l *Listener) sendRetry(hdr *quicwire.Header, from net.Addr) {
	newSCID := quicwire.NewRandomConnID(8)
	token := l.retry.mint(from, hdr.DstID)

	// Retry packet: type bits 3, ODCID-derived integrity tag.
	first := byte(0x80 | 0x40 | 3<<4)
	pkt := []byte{first}
	pkt = append(pkt, byte(hdr.Version>>24), byte(hdr.Version>>16), byte(hdr.Version>>8), byte(hdr.Version))
	pkt = append(pkt, byte(len(hdr.SrcID)))
	pkt = append(pkt, hdr.SrcID...)
	pkt = append(pkt, byte(len(newSCID)))
	pkt = append(pkt, newSCID...)
	pkt = append(pkt, token...)
	tag, err := quiccrypto.RetryIntegrityTag(hdr.Version, hdr.DstID, pkt)
	if err != nil {
		return
	}
	pkt = append(pkt, tag[:]...)
	l.socks[0].WriteTo(pkt, from)
}
