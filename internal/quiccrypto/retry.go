package quiccrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"errors"

	"quicscan/internal/quicwire"
)

// Retry integrity keys and nonces (RFC 9001 Section 5.8 and the draft
// equivalents for draft-29..32).
var (
	retryKeyV1      = []byte{0xbe, 0x0c, 0x69, 0x0b, 0x9f, 0x66, 0x57, 0x5a, 0x1d, 0x76, 0x6b, 0x54, 0xe3, 0x68, 0xc8, 0x4e}
	retryNonceV1    = []byte{0x46, 0x15, 0x99, 0xd3, 0x5d, 0x63, 0x2b, 0xf2, 0x23, 0x98, 0x25, 0xbb, 0x1f, 0x76, 0xcd, 0xcc}
	retryKeyDraft   = []byte{0xcc, 0xce, 0x18, 0x7e, 0xd0, 0x9a, 0x09, 0xd0, 0x57, 0x28, 0x15, 0x5a, 0x6c, 0xb9, 0x6b, 0xe1}
	retryNonceDraft = []byte{0xe5, 0x49, 0x30, 0xf9, 0x7f, 0x21, 0x36, 0xf0, 0x53, 0x0a, 0x8c, 0x1c}
	retryNonceV1_   = retryNonceV1[:12]
)

func retryAEAD(v quicwire.Version) (cipher.AEAD, []byte, error) {
	key, nonce := retryKeyDraft, retryNonceDraft
	if v == quicwire.Version1 || v.DraftNumber() >= 33 {
		key, nonce = retryKeyV1, retryNonceV1_
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, err
	}
	return aead, nonce, nil
}

// retryPseudoPacket builds the integrity-tag input: the original
// destination connection ID length and value followed by the Retry
// packet without its tag.
func retryPseudoPacket(origDstID quicwire.ConnID, retryWithoutTag []byte) []byte {
	out := make([]byte, 0, 1+len(origDstID)+len(retryWithoutTag))
	out = append(out, byte(len(origDstID)))
	out = append(out, origDstID...)
	return append(out, retryWithoutTag...)
}

// RetryIntegrityTag computes the 16-byte tag appended to a Retry
// packet.
func RetryIntegrityTag(v quicwire.Version, origDstID quicwire.ConnID, retryWithoutTag []byte) ([16]byte, error) {
	var tag [16]byte
	aead, nonce, err := retryAEAD(v)
	if err != nil {
		return tag, err
	}
	sealed := aead.Seal(nil, nonce, nil, retryPseudoPacket(origDstID, retryWithoutTag))
	copy(tag[:], sealed)
	return tag, nil
}

// errRetryIntegrity indicates a Retry packet with an invalid tag.
var errRetryIntegrity = errors.New("quiccrypto: retry integrity check failed")

// VerifyRetryIntegrity checks the tag of a full Retry packet (tag in
// the final 16 bytes).
func VerifyRetryIntegrity(v quicwire.Version, origDstID quicwire.ConnID, retryPacket []byte) error {
	if len(retryPacket) < 16 {
		return errRetryIntegrity
	}
	body := retryPacket[:len(retryPacket)-16]
	got := retryPacket[len(retryPacket)-16:]
	want, err := RetryIntegrityTag(v, origDstID, body)
	if err != nil {
		return err
	}
	if subtle.ConstantTimeCompare(got, want[:]) != 1 {
		return errRetryIntegrity
	}
	return nil
}
