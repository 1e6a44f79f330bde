// Package quiccrypto implements QUIC packet protection as specified in
// RFC 9001 ("Using TLS to Secure QUIC") for QUIC version 1 and the late
// IETF drafts: Initial secret derivation with per-version salts,
// HKDF-Expand-Label, AEAD payload protection, header protection (AES
// and ChaCha20 based), and Retry packet integrity.
//
// The package deliberately contains a self-contained ChaCha20-Poly1305
// implementation (RFC 8439): the standard library uses the cipher
// internally in crypto/tls but does not export the raw stream cipher,
// which QUIC header protection requires.
package quiccrypto

import (
	"crypto/hkdf"
	"crypto/sha256"
	"crypto/sha512"
	"hash"
	"sync"
)

// expandLabel implements HKDF-Expand-Label from TLS 1.3 (RFC 8446,
// Section 7.1) as used by QUIC: the label is prefixed with "tls13 "
// and the context is empty for all QUIC usages.
func expandLabel[H hash.Hash](h func() H, secret []byte, label string, length int) []byte {
	info := make([]byte, 0, 2+1+6+len(label)+1)
	info = append(info, byte(length>>8), byte(length))
	info = append(info, byte(6+len(label)))
	info = append(info, "tls13 "...)
	info = append(info, label...)
	info = append(info, 0) // empty context
	out, err := hkdf.Expand(h, secret, string(info), length)
	if err != nil {
		panic("quiccrypto: hkdf expand: " + err.Error())
	}
	return out
}

// The SHA-256 fast path below exists because key derivation sits on
// the scanner's per-target dial path: every Initial key setup runs
// nine HKDF computations, and the stdlib hkdf/hmac packages construct
// two fresh hash states per computation. A pooled HMAC over reusable
// SHA-256 states and caller-provided outputs keeps a whole Initial
// derivation at a handful of allocations. The generic expandLabel
// stays for SHA-384 suites and external callers.

// hmac256 is an HMAC-SHA256 computation over a pooled SHA-256 state.
// All scratch lives inside the pooled struct: passing stack arrays to
// hash.Hash interface methods would force them to escape, so message
// assembly and digests go through msg/sum instead. Leased states
// retain the last key's pads until reuse; acceptable for a measurement
// tool, as the process handles the raw secrets anyway.
type hmac256 struct {
	h    hash.Hash
	ikey [64]byte  // key xor ipad
	okey [64]byte  // key xor opad
	sum  [32]byte  // digest scratch
	msg  [128]byte // message scratch: T(n-1) at [0:32], info after
}

var hmac256Pool = sync.Pool{
	New: func() any { return &hmac256{h: sha256.New()} },
}

// setKey keys the state. Keys longer than the SHA-256 block size are
// not supported (QUIC secrets are 20–32 bytes).
func (m *hmac256) setKey(key []byte) {
	for i := range m.ikey {
		m.ikey[i] = 0x36
		m.okey[i] = 0x5c
	}
	for i, b := range key {
		m.ikey[i] ^= b
		m.okey[i] ^= b
	}
}

// mac computes HMAC(key, msg) into m.sum for the current key.
func (m *hmac256) mac(msg []byte) {
	m.h.Reset()
	m.h.Write(m.ikey[:])
	m.h.Write(msg)
	m.h.Sum(m.sum[:0])
	m.h.Reset()
	m.h.Write(m.okey[:])
	m.h.Write(m.sum[:])
	m.h.Sum(m.sum[:0])
}

// hkdfExtract256 is HKDF-Extract with SHA-256: PRK = HMAC(salt, ikm).
func hkdfExtract256(salt, ikm []byte, out *[32]byte) {
	m := hmac256Pool.Get().(*hmac256)
	m.setKey(salt)
	m.mac(ikm)
	copy(out[:], m.sum[:])
	hmac256Pool.Put(m)
}

// expandLabel256 is HKDF-Expand-Label with SHA-256 into a
// caller-provided output (len(out) ≤ 64, enough for every QUIC use).
func expandLabel256(secret []byte, label string, out []byte) {
	m := hmac256Pool.Get().(*hmac256)
	m.setKey(secret)

	// msg layout per RFC 5869: T(n-1) || info || counter, with T
	// occupying msg[0:32] so later rounds extend the window leftwards.
	info := m.msg[32:]
	info[0] = byte(len(out) >> 8)
	info[1] = byte(len(out))
	info[2] = byte(6 + len(label))
	n := 3 + copy(info[3:], "tls13 ")
	n += copy(info[n:], label)
	info[n] = 0 // empty context
	n++

	written := 0
	for counter := byte(1); written < len(out); counter++ {
		info[n] = counter
		start := 0
		if counter == 1 {
			start = 32 // no T(0)
		}
		m.mac(m.msg[start : 32+n+1])
		copy(m.msg[0:32], m.sum[:])
		written += copy(out[written:], m.sum[:])
	}
	hmac256Pool.Put(m)
}

// hashForSuite returns the hash constructor for a TLS 1.3 cipher suite.
func hashForSuite(suite uint16) func() hash.Hash {
	if suite == tlsAes256GcmSha384 {
		return sha512.New384
	}
	return sha256.New
}
