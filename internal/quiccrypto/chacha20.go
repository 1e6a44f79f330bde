package quiccrypto

import (
	"encoding/binary"
	"math/bits"
)

// chaCha20Block computes one 64-byte ChaCha20 block (RFC 8439,
// Section 2.3) into out.
func chaCha20Block(key *[32]byte, counter uint32, nonce *[12]byte, out *[64]byte) {
	var s [16]uint32
	s[0], s[1], s[2], s[3] = 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574
	for i := 0; i < 8; i++ {
		s[4+i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	s[12] = counter
	s[13] = binary.LittleEndian.Uint32(nonce[0:])
	s[14] = binary.LittleEndian.Uint32(nonce[4:])
	s[15] = binary.LittleEndian.Uint32(nonce[8:])

	w := s
	quarter := func(a, b, c, d int) {
		w[a] += w[b]
		w[d] = bits.RotateLeft32(w[d]^w[a], 16)
		w[c] += w[d]
		w[b] = bits.RotateLeft32(w[b]^w[c], 12)
		w[a] += w[b]
		w[d] = bits.RotateLeft32(w[d]^w[a], 8)
		w[c] += w[d]
		w[b] = bits.RotateLeft32(w[b]^w[c], 7)
	}
	for i := 0; i < 10; i++ {
		quarter(0, 4, 8, 12)
		quarter(1, 5, 9, 13)
		quarter(2, 6, 10, 14)
		quarter(3, 7, 11, 15)
		quarter(0, 5, 10, 15)
		quarter(1, 6, 11, 12)
		quarter(2, 7, 8, 13)
		quarter(3, 4, 9, 14)
	}
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(out[4*i:], w[i]+s[i])
	}
}

// chaCha20XOR encrypts/decrypts src into dst (which may alias) with the
// ChaCha20 stream starting at the given block counter.
func chaCha20XOR(dst, src []byte, key *[32]byte, counter uint32, nonce *[12]byte) {
	var block [64]byte
	for len(src) > 0 {
		chaCha20Block(key, counter, nonce, &block)
		counter++
		n := len(src)
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			dst[i] = src[i] ^ block[i]
		}
		dst, src = dst[n:], src[n:]
	}
}

// chaCha20HeaderMask computes the 5-byte QUIC header protection mask
// for ChaCha20-based cipher suites (RFC 9001, Section 5.4.4): the first
// 4 bytes of the sample are the block counter, the remaining 12 the
// nonce, and the mask is the first 5 bytes of the keystream.
func chaCha20HeaderMask(hpKey []byte, sample []byte) [5]byte {
	if len(hpKey) != 32 || len(sample) != 16 {
		panic("quiccrypto: bad ChaCha20 header protection inputs")
	}
	var key [32]byte
	copy(key[:], hpKey)
	counter := binary.LittleEndian.Uint32(sample[0:4])
	var nonce [12]byte
	copy(nonce[:], sample[4:16])
	var mask [5]byte
	chaCha20XOR(mask[:], mask[:], &key, counter, &nonce)
	return mask
}
