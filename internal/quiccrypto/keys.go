package quiccrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"

	"quicscan/internal/quicwire"
)

// TLS 1.3 cipher suite identifiers (duplicated here to avoid importing
// crypto/tls from a low-level package).
const (
	tlsAes128GcmSha256        uint16 = 0x1301
	tlsAes256GcmSha384        uint16 = 0x1302
	tlsChaCha20Poly1305Sha256 uint16 = 0x1303
)

// SealOverhead is the AEAD expansion of a protected packet (all QUIC
// AEADs have 16-byte tags).
const SealOverhead = 16

// headerProtection computes 5-byte header protection masks from
// 16-byte ciphertext samples (RFC 9001, Section 5.4): AES-ECB of the
// sample when block is set, ChaCha20 keyed with chachaKey otherwise.
// It lives in Keys by value and carries its own scratch block: passing
// a stack buffer through the cipher.Block interface forces it to
// escape, which would cost one heap allocation per protected packet.
type headerProtection struct {
	block     cipher.Block
	chachaKey [32]byte
	buf       [16]byte
}

func (p *headerProtection) mask(sample []byte) [5]byte {
	if p.block == nil {
		return chaCha20HeaderMask(p.chachaKey[:], sample)
	}
	p.block.Encrypt(p.buf[:], sample)
	return [5]byte{p.buf[0], p.buf[1], p.buf[2], p.buf[3], p.buf[4]}
}

// maxSecretLen is the longest TLS 1.3 traffic secret (SHA-384).
const maxSecretLen = 48

// Keys holds the sealing or opening state for one direction at one
// encryption level.
//
// A Keys has a single owner: SealPacket and OpenPacket stage the packet
// nonce and the header protection block in scratch space inside the
// Keys (handing a stack buffer to cipher.AEAD makes it escape, one heap
// allocation per packet), so one Keys must not be used from two
// goroutines at once. A connection holds separate Keys for sending and
// receiving and drives both under its mutex; the two directions never
// share a Keys, so they may run concurrently.
type Keys struct {
	aead  cipher.AEAD
	iv    [12]byte
	nonce [12]byte // scratch: iv xor packet number
	hp    headerProtection

	// suite and secret are retained so the next key generation can be
	// derived for key updates (RFC 9001, Section 6).
	suite     uint16
	secret    [maxSecretLen]byte
	secretLen int
}

// NewKeys derives packet protection keys from a TLS traffic secret for
// the given cipher suite (RFC 9001, Section 5.1).
func NewKeys(suite uint16, secret []byte) (*Keys, error) {
	h := hashForSuite(suite)
	var keyLen int
	switch suite {
	case tlsAes128GcmSha256:
		keyLen = 16
	case tlsAes256GcmSha384:
		keyLen = 32
	case tlsChaCha20Poly1305Sha256:
		keyLen = 32
	default:
		return nil, fmt.Errorf("quiccrypto: unsupported cipher suite %#04x", suite)
	}
	if len(secret) > maxSecretLen {
		return nil, fmt.Errorf("quiccrypto: traffic secret of %d bytes", len(secret))
	}

	var key, hpKey []byte
	k := &Keys{suite: suite}
	k.secretLen = copy(k.secret[:], secret)
	if suite == tlsAes256GcmSha384 {
		key = expandLabel(h, secret, "quic key", keyLen)
		copy(k.iv[:], expandLabel(h, secret, "quic iv", 12))
		hpKey = expandLabel(h, secret, "quic hp", keyLen)
	} else {
		// SHA-256 suites take the pooled fast path; the key buffers
		// live on the stack and are consumed before return (every
		// cipher constructor below copies its key).
		var keyBuf, hpBuf [32]byte
		expandLabel256(secret, "quic key", keyBuf[:keyLen])
		expandLabel256(secret, "quic iv", k.iv[:])
		expandLabel256(secret, "quic hp", hpBuf[:keyLen])
		key, hpKey = keyBuf[:keyLen], hpBuf[:keyLen]
	}
	switch suite {
	case tlsAes128GcmSha256, tlsAes256GcmSha384:
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		aead, err := cipher.NewGCM(block)
		if err != nil {
			return nil, err
		}
		k.aead = aead
		k.hp.block, err = aes.NewCipher(hpKey)
		if err != nil {
			return nil, err
		}
	case tlsChaCha20Poly1305Sha256:
		aead, err := NewChaCha20Poly1305(key)
		if err != nil {
			return nil, err
		}
		k.aead = aead
		copy(k.hp.chachaKey[:], hpKey)
	}
	return k, nil
}

// Next derives the following key generation for a key update
// (RFC 9001, Section 6.1): secret_{n+1} = HKDF-Expand-Label(secret_n,
// "quic ku", "", hash_len). Header protection keys are NOT updated.
func (k *Keys) Next() (*Keys, error) {
	if k.secretLen == 0 {
		return nil, errors.New("quiccrypto: keys not derived from a secret")
	}
	h := hashForSuite(k.suite)
	nextSecret := expandLabel(h, k.secret[:k.secretLen], "quic ku", k.secretLen)
	nk, err := NewKeys(k.suite, nextSecret)
	if err != nil {
		return nil, err
	}
	// The header protection key stays fixed across updates.
	nk.hp = k.hp
	return nk, nil
}

// nonceFor computes the per-packet AEAD nonce, IV xor packet number,
// in the Keys' scratch; it is valid until the next call.
func (k *Keys) nonceFor(pn uint64) []byte {
	k.nonce = k.iv
	for i := 0; i < 8; i++ {
		k.nonce[11-i] ^= byte(pn >> (8 * i))
	}
	return k.nonce[:]
}

// SealPacket protects a packet in place. pkt contains the plaintext
// header followed by the plaintext payload; pnOffset and pnLen locate
// the packet number within the header; pn is the full packet number.
// The payload is encrypted (growing the slice by SealOverhead) and
// header protection is applied. The protected packet is returned.
//
// For long header packets the Length field must already account for
// the AEAD overhead.
func (k *Keys) SealPacket(pkt []byte, pnOffset, pnLen int, pn uint64) []byte {
	hdrLen := pnOffset + pnLen
	header := pkt[:hdrLen]
	payload := pkt[hdrLen:]
	// Seal may reallocate if pkt lacks capacity for the tag; append the
	// result back so the returned slice is always self-contained.
	sealed := k.aead.Seal(payload[:0], k.nonceFor(pn), payload, header)
	pkt = append(pkt[:hdrLen], sealed...)

	// Header protection (RFC 9001, Section 5.4.1): sample starts 4
	// bytes after the start of the packet number field.
	sample := pkt[pnOffset+4 : pnOffset+4+16]
	mask := k.hp.mask(sample)
	if quicwire.IsLongHeader(pkt[0]) {
		pkt[0] ^= mask[0] & 0x0f
	} else {
		pkt[0] ^= mask[0] & 0x1f
	}
	for i := 0; i < pnLen; i++ {
		pkt[pnOffset+i] ^= mask[1+i]
	}
	return pkt
}

// errDecryptFailed is returned when a packet fails authentication.
var errDecryptFailed = errors.New("quiccrypto: packet decryption failed")

// OpenPacket removes header protection and decrypts a packet.
//
// pkt is the full packet (header byte through the end of the AEAD
// tag); pnOffset is where the protected packet number begins (i.e. the
// value returned by the header parsers); largestPN is the largest
// packet number received so far in this packet number space (-1 if
// none). It returns the decrypted payload, the full packet number and
// the packet number length. pkt is modified in place (header bytes are
// unprotected; the payload is decrypted into the same backing array).
func (k *Keys) OpenPacket(pkt []byte, pnOffset int, largestPN int64) (payload []byte, pn uint64, pnLen int, err error) {
	if len(pkt) < pnOffset+4+16 {
		return nil, 0, 0, errDecryptFailed
	}
	sample := pkt[pnOffset+4 : pnOffset+4+16]
	mask := k.hp.mask(sample)
	first := pkt[0]
	if quicwire.IsLongHeader(first) {
		first ^= mask[0] & 0x0f
	} else {
		first ^= mask[0] & 0x1f
	}
	pnLen = int(first&0x03) + 1
	if len(pkt) < pnOffset+pnLen {
		return nil, 0, 0, errDecryptFailed
	}
	pkt[0] = first
	var truncated uint64
	for i := 0; i < pnLen; i++ {
		pkt[pnOffset+i] ^= mask[1+i]
		truncated = truncated<<8 | uint64(pkt[pnOffset+i])
	}
	pn = quicwire.DecodePacketNumber(largestPN, truncated, pnLen)

	hdrLen := pnOffset + pnLen
	payload, aeadErr := k.aead.Open(pkt[hdrLen:hdrLen], k.nonceFor(pn), pkt[hdrLen:], pkt[:hdrLen])
	if aeadErr != nil {
		return nil, 0, 0, errDecryptFailed
	}
	return payload, pn, pnLen, nil
}
