package quiccrypto

import (
	"bytes"
	"testing"
)

// TestChaCha20BlockRFC8439 uses the block function test vector from
// RFC 8439, Section 2.3.2.
func TestChaCha20BlockRFC8439(t *testing.T) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i)
	}
	nonce := [12]byte{0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00}
	var out [64]byte
	chaCha20Block(&key, 1, &nonce, &out)
	want := unhex(t, "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
	if !bytes.Equal(out[:], want) {
		t.Errorf("block = %x\nwant  %x", out, want)
	}
}

// TestChaCha20EncryptRFC8439 is the stream encryption vector from
// RFC 8439, Section 2.4.2.
func TestChaCha20EncryptRFC8439(t *testing.T) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i)
	}
	nonce := [12]byte{0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0}
	plaintext := []byte("Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.")
	dst := make([]byte, len(plaintext))
	chaCha20XOR(dst, plaintext, &key, 1, &nonce)
	want := unhex(t, "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d")
	if !bytes.Equal(dst, want) {
		t.Errorf("ciphertext mismatch\ngot  %x\nwant %x", dst, want)
	}
	// Decrypt back.
	back := make([]byte, len(dst))
	chaCha20XOR(back, dst, &key, 1, &nonce)
	if !bytes.Equal(back, plaintext) {
		t.Error("decrypt round trip failed")
	}
}

// TestPoly1305RFC8439 is the MAC vector from RFC 8439, Section 2.5.2.
func TestPoly1305RFC8439(t *testing.T) {
	var key [32]byte
	copy(key[:], unhex(t, "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"))
	msg := []byte("Cryptographic Forum Research Group")
	tag := poly1305Sum(&key, msg)
	want := unhex(t, "a8061dc1305136c6c22b8baf0c0127a9")
	if !bytes.Equal(tag[:], want) {
		t.Errorf("tag = %x want %x", tag, want)
	}
}

// TestPoly1305EdgeCases exercises messages around block boundaries and
// the wraparound-prone all-0xff blocks.
func TestPoly1305EdgeCases(t *testing.T) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i*7 + 1)
	}
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 64, 255} {
		msg := bytes.Repeat([]byte{0xff}, n)
		tag1 := poly1305Sum(&key, msg)
		tag2 := poly1305Sum(&key, msg)
		if tag1 != tag2 {
			t.Errorf("len %d: non-deterministic", n)
		}
		if n > 0 {
			msg[n/2] ^= 1
			tag3 := poly1305Sum(&key, msg)
			if tag1 == tag3 {
				t.Errorf("len %d: tag unchanged after flip", n)
			}
		}
	}
}

// TestAEADRFC8439 is the full ChaCha20-Poly1305 AEAD vector from
// RFC 8439, Section 2.8.2.
func TestAEADRFC8439(t *testing.T) {
	key := unhex(t, "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
	nonce := unhex(t, "070000004041424344454647")
	aad := unhex(t, "50515253c0c1c2c3c4c5c6c7")
	plaintext := []byte("Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.")

	aead, err := NewChaCha20Poly1305(key)
	if err != nil {
		t.Fatal(err)
	}
	got := aead.Seal(nil, nonce, plaintext, aad)
	wantCT := unhex(t, "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d63dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b3692ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc3ff4def08e4b7a9de576d26586cec64b6116")
	wantTag := unhex(t, "1ae10b594f09e26a7e902ecbd0600691")
	if !bytes.Equal(got[:len(wantCT)], wantCT) {
		t.Errorf("ciphertext mismatch")
	}
	if !bytes.Equal(got[len(wantCT):], wantTag) {
		t.Errorf("tag = %x want %x", got[len(wantCT):], wantTag)
	}

	back, err := aead.Open(nil, nonce, got, aad)
	if err != nil || !bytes.Equal(back, plaintext) {
		t.Errorf("Open: %v", err)
	}
	// Wrong AAD must fail.
	if _, err := aead.Open(nil, nonce, got, nil); err == nil {
		t.Error("open with wrong AAD succeeded")
	}
	// Truncated ciphertext must fail cleanly.
	if _, err := aead.Open(nil, nonce, got[:10], aad); err == nil {
		t.Error("open of truncated ciphertext succeeded")
	}
	if aead.NonceSize() != 12 || aead.Overhead() != 16 {
		t.Error("AEAD geometry wrong")
	}
	if _, err := NewChaCha20Poly1305(key[:16]); err == nil {
		t.Error("short key accepted")
	}
}

func TestChaChaHeaderMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad input sizes did not panic")
		}
	}()
	chaCha20HeaderMask(make([]byte, 5), make([]byte, 16))
}
