package quiccrypto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"quicscan/internal/quicwire"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// TestInitialSecretsRFC9001A1 checks the full Initial key derivation
// chain against RFC 9001, Appendix A.1.
func TestInitialSecretsRFC9001A1(t *testing.T) {
	dcid := quicwire.ConnID(unhex(t, "8394c8f03e515708"))

	salt, err := initialSalt(quicwire.Version1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(salt, unhex(t, "38762cf7f55934b34d179ae6a4c80cadccbb7f0a")) {
		t.Fatalf("v1 salt = %x", salt)
	}

	// client_initial_secret and derived key material.
	ik, err := NewInitialKeys(quicwire.Version1, dcid)
	if err != nil {
		t.Fatal(err)
	}
	wantClientIV := unhex(t, "fa044b2f42a3fd3b46fb255c")
	if !bytes.Equal(ik.Client.iv[:], wantClientIV) {
		t.Errorf("client iv = %x want %x", ik.Client.iv, wantClientIV)
	}
	wantServerIV := unhex(t, "0ac1493ca1905853b0bba03e")
	if !bytes.Equal(ik.Server.iv[:], wantServerIV) {
		t.Errorf("server iv = %x want %x", ik.Server.iv, wantServerIV)
	}
}

// TestExpandLabelVector checks HKDF-Expand-Label against the RFC 9001
// A.1 client_initial_secret derivation.
func TestExpandLabelVector(t *testing.T) {
	initialSecret := unhex(t, "7db5df06e7a69e432496adedb00851923595221596ae2ae9fb8115c1e9ed0a44")
	clientSecret := expandLabel(sha256.New, initialSecret, "client in", 32)
	want := unhex(t, "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea")
	if !bytes.Equal(clientSecret, want) {
		t.Errorf("client in secret = %x want %x", clientSecret, want)
	}
	key := expandLabel(sha256.New, clientSecret, "quic key", 16)
	if !bytes.Equal(key, unhex(t, "1f369613dd76d5467730efcbe3b1a22d")) {
		t.Errorf("quic key = %x", key)
	}
	hp := expandLabel(sha256.New, clientSecret, "quic hp", 16)
	if !bytes.Equal(hp, unhex(t, "9f50449e04a0e810283a1e9933adedd2")) {
		t.Errorf("quic hp = %x", hp)
	}
}

// TestClientInitialProtectionRFC9001A2 reproduces the protected header
// prefix of the RFC 9001 A.2 client Initial packet. Only the first 16
// payload bytes of the RFC's CRYPTO frame are needed to reproduce the
// header protection sample, so the remainder is zero padding.
func TestClientInitialProtectionRFC9001A2(t *testing.T) {
	dcid := quicwire.ConnID(unhex(t, "8394c8f03e515708"))
	ik, err := NewInitialKeys(quicwire.Version1, dcid)
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 1162)
	copy(payload, unhex(t, "060040f1010000ed0303ebf8fa56f129"))

	h := &quicwire.Header{
		Type:            quicwire.PacketInitial,
		Version:         quicwire.Version1,
		DstID:           dcid,
		SrcID:           nil,
		PacketNumber:    2,
		PacketNumberLen: 4,
	}
	pkt, pnOff := quicwire.AppendLongHeader(nil, h, len(payload)+SealOverhead)
	pkt = append(pkt, payload...)
	protected := ik.Client.SealPacket(pkt, pnOff, 4, 2)

	wantPrefix := unhex(t, "c000000001088394c8f03e5157080000449e7b9aec34")
	if !bytes.Equal(protected[:len(wantPrefix)], wantPrefix) {
		t.Errorf("protected prefix = %x\nwant               %x", protected[:len(wantPrefix)], wantPrefix)
	}
	if len(protected) != 1200 {
		t.Errorf("protected packet length = %d want 1200", len(protected))
	}

	// The server must be able to open it.
	parsed, pnOff2, err := quicwire.ParseLongHeader(protected)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Type != quicwire.PacketInitial {
		t.Fatalf("parsed type %v", parsed.Type)
	}
	ik2, err := NewInitialKeys(quicwire.Version1, dcid)
	if err != nil {
		t.Fatal(err)
	}
	got, pn, pnLen, err := ik2.Client.OpenPacket(protected, pnOff2, -1)
	if err != nil {
		t.Fatalf("OpenPacket: %v", err)
	}
	if pn != 2 || pnLen != 4 {
		t.Errorf("pn=%d pnLen=%d", pn, pnLen)
	}
	if !bytes.Equal(got, payload) {
		t.Error("decrypted payload mismatch")
	}
}

// TestChaChaShortPacketRFC9001A5 is the complete RFC 9001 A.5
// known-answer test: a ChaCha20-Poly1305-protected short header packet
// carrying a single PING frame.
func TestChaChaShortPacketRFC9001A5(t *testing.T) {
	secret := unhex(t, "9ac312a7f877468ebe69422748ad00a15443f18203a07d6060f688f30f21632b")
	k, err := NewKeys(tlsChaCha20Poly1305Sha256, secret)
	if err != nil {
		t.Fatal(err)
	}

	// Build: header 0x42 (pnLen 3), no connection ID, pn 654360564.
	pkt, pnOff := quicwire.AppendShortHeader(nil, nil, 654360564, 3, false)
	pkt = append(pkt, 0x01) // PING
	protected := k.SealPacket(pkt, pnOff, 3, 654360564)

	want := unhex(t, "4cfe4189655e5cd55c41f69080575d7999c25a5bfb")
	if !bytes.Equal(protected, want) {
		t.Errorf("protected = %x\nwant      %x", protected, want)
	}

	// And open it again.
	k2, err := NewKeys(tlsChaCha20Poly1305Sha256, secret)
	if err != nil {
		t.Fatal(err)
	}
	cp := append([]byte(nil), want...)
	payload, pn, pnLen, err := k2.OpenPacket(cp, 1, 654360563)
	if err != nil {
		t.Fatal(err)
	}
	if pn != 654360564 || pnLen != 3 || !bytes.Equal(payload, []byte{0x01}) {
		t.Errorf("pn=%d pnLen=%d payload=%x", pn, pnLen, payload)
	}
}

func TestRetryIntegrityRFC9001A4(t *testing.T) {
	odcid := quicwire.ConnID(unhex(t, "8394c8f03e515708"))
	full := unhex(t, "ff000000010008f067a5502a4262b5746f6b656e04a265ba2eff4d829058fb3f0f2496ba")
	if err := VerifyRetryIntegrity(quicwire.Version1, odcid, full); err != nil {
		t.Errorf("valid retry rejected: %v", err)
	}
	// Flip a token byte: must fail.
	bad := append([]byte(nil), full...)
	bad[15] ^= 1
	if err := VerifyRetryIntegrity(quicwire.Version1, odcid, bad); err == nil {
		t.Error("corrupted retry accepted")
	}
	// Recompute the tag from the body and compare.
	tag, err := RetryIntegrityTag(quicwire.Version1, odcid, full[:len(full)-16])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tag[:], full[len(full)-16:]) {
		t.Errorf("tag = %x want %x", tag, full[len(full)-16:])
	}
}

func TestSaltSelection(t *testing.T) {
	cases := []struct {
		v    quicwire.Version
		want []byte
	}{
		{quicwire.Version1, saltV1},
		{quicwire.VersionDraft34, saltV1},
		{quicwire.VersionDraft32, saltDraft29},
		{quicwire.VersionDraft29, saltDraft29},
		{quicwire.VersionDraft28, saltDraft23},
		{quicwire.VersionDraft27, saltDraft23},
	}
	for _, c := range cases {
		got, err := initialSalt(c.v)
		if err != nil || !bytes.Equal(got, c.want) {
			t.Errorf("initialSalt(%v) = %x, %v", c.v, got, err)
		}
	}
	if _, err := initialSalt(quicwire.VersionGoogleQ050); err == nil {
		t.Error("Google version should have no IETF salt")
	}
	if _, err := initialSalt(quicwire.ForcedNegotiationVersion); err == nil {
		t.Error("forced negotiation version should have no salt")
	}
}

func TestSealOpenAllSuites(t *testing.T) {
	secret := bytes.Repeat([]byte{0x42}, 48)
	for _, suite := range []uint16{tlsAes128GcmSha256, tlsAes256GcmSha384, tlsChaCha20Poly1305Sha256} {
		k, err := NewKeys(suite, secret)
		if err != nil {
			t.Fatalf("suite %#x: %v", suite, err)
		}
		k2, _ := NewKeys(suite, secret)
		dst := quicwire.ConnID{1, 2, 3, 4}
		for pn := uint64(0); pn < 5; pn++ {
			payload := bytes.Repeat([]byte{byte(pn)}, 64)
			pnLen := quicwire.PacketNumberLenFor(pn, int64(pn)-1)
			pkt, pnOff := quicwire.AppendShortHeader(nil, dst, pn, pnLen, false)
			pkt = append(pkt, payload...)
			protected := k.SealPacket(pkt, pnOff, pnLen, pn)

			_, pnOff2, err := quicwire.ParseShortHeader(protected, len(dst))
			if err != nil {
				t.Fatal(err)
			}
			got, gotPN, _, err := k2.OpenPacket(protected, pnOff2, int64(pn)-1)
			if err != nil {
				t.Fatalf("suite %#x pn %d: %v", suite, pn, err)
			}
			if gotPN != pn || !bytes.Equal(got, payload) {
				t.Errorf("suite %#x pn %d: got pn %d", suite, pn, gotPN)
			}
		}
	}
	if _, err := NewKeys(0x1399, secret); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	ik, err := NewInitialKeys(quicwire.VersionDraft29, quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	h := &quicwire.Header{Type: quicwire.PacketInitial, Version: quicwire.VersionDraft29,
		DstID: quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}, PacketNumber: 0, PacketNumberLen: 1}
	payload := make([]byte, 32)
	pkt, pnOff := quicwire.AppendLongHeader(nil, h, len(payload)+SealOverhead)
	pkt = append(pkt, payload...)
	protected := ik.Client.SealPacket(pkt, pnOff, 1, 0)

	for _, i := range []int{0, 6, len(protected) - 1} {
		bad := append([]byte(nil), protected...)
		bad[i] ^= 0x40
		_, pnOff2, err := quicwire.ParseLongHeader(bad)
		if err != nil {
			continue // header corruption may already fail parsing
		}
		if _, _, _, err := ik.Client.OpenPacket(bad, pnOff2, -1); err == nil {
			t.Errorf("tampered byte %d accepted", i)
		}
	}
	// Too-short packet must not panic.
	if _, _, _, err := ik.Client.OpenPacket(protected[:10], 5, -1); err == nil {
		t.Error("short packet accepted")
	}
}

func TestNonceXOR(t *testing.T) {
	k := &Keys{}
	for i := range k.iv {
		k.iv[i] = byte(i)
	}
	if n := k.nonceFor(0); !bytes.Equal(n, k.iv[:]) {
		t.Error("nonceFor(0) should equal IV")
	}
	if n := k.nonceFor(1); n[11] != k.iv[11]^1 {
		t.Error("nonceFor(1) xor wrong")
	}
	want := k.iv
	for i := 0; i < 8; i++ {
		want[11-i] ^= byte(uint64(0xdeadbeef) >> (8 * i))
	}
	if n := k.nonceFor(0xdeadbeef); !bytes.Equal(n, want[:]) {
		t.Errorf("nonce = %x want %x", n, want)
	}
}

// TestKeysSingleOwnerPerDirection exercises the ownership rule in the
// Keys doc comment under the race detector: a connection's send keys
// and receive keys are distinct Keys values, so sealing on one
// goroutine while opening on another touches no shared scratch — for
// every suite, and across a key update (Next hands the header
// protection state to the new generation by value).
func TestKeysSingleOwnerPerDirection(t *testing.T) {
	for _, suite := range []uint16{tlsAes128GcmSha256, tlsAes256GcmSha384, tlsChaCha20Poly1305Sha256} {
		secret := bytes.Repeat([]byte{byte(suite)}, 32)
		if suite == tlsAes256GcmSha384 {
			secret = bytes.Repeat([]byte{byte(suite)}, 48)
		}
		mk := func() *Keys {
			k, err := NewKeys(suite, secret)
			if err != nil {
				t.Fatal(err)
			}
			return k
		}
		// One endpoint's pair: it seals with send and opens, with recv,
		// what its peer sealed under the same secret.
		send, recv, peer := mk(), mk(), mk()
		dst := quicwire.ConnID{1, 2, 3, 4, 5, 6, 7, 8}
		const packets = 200
		inbound := make([][]byte, packets)
		for pn := range inbound {
			pkt, pnOff := quicwire.AppendShortHeader(nil, dst, uint64(pn), 2, false)
			pkt = append(pkt, bytes.Repeat([]byte{byte(pn)}, 40)...)
			inbound[pn] = peer.SealPacket(pkt, pnOff, 2, uint64(pn))
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			k := send
			for pn := uint64(0); pn < packets; pn++ {
				if pn == packets/2 {
					k, _ = k.Next()
				}
				pkt, pnOff := quicwire.AppendShortHeader(nil, dst, pn, 2, false)
				pkt = append(pkt, make([]byte, 40)...)
				k.SealPacket(pkt, pnOff, 2, pn)
			}
		}()
		go func() {
			defer wg.Done()
			for pn, pkt := range inbound {
				got, gotPN, _, err := recv.OpenPacket(pkt, 1+len(dst), int64(pn)-1)
				if err != nil || gotPN != uint64(pn) || len(got) != 40 || got[0] != byte(pn) {
					t.Errorf("suite %#x pn %d: pn %d, %d bytes, %v", suite, pn, gotPN, len(got), err)
					return
				}
			}
		}()
		wg.Wait()
	}
}

// TestKeyUpdateRFC9001A5 pins the key-update secret derivation against
// the RFC 9001 Appendix A.5 vector: the ChaCha20 secret's "quic ku"
// expansion.
func TestKeyUpdateRFC9001A5(t *testing.T) {
	secret := unhex(t, "9ac312a7f877468ebe69422748ad00a15443f18203a07d6060f688f30f21632b")
	k, err := NewKeys(tlsChaCha20Poly1305Sha256, secret)
	if err != nil {
		t.Fatal(err)
	}
	next := expandLabel(sha256.New, secret, "quic ku", 32)
	want := unhex(t, "1223504755036d556342ee9361d253421a826c9ecdf3c7148684b36b714881f9")
	if !bytes.Equal(next, want) {
		t.Fatalf("quic ku = %x want %x", next, want)
	}
	// Keys.Next must derive the same generation and be able to open its
	// own sealed packets while the old generation cannot.
	nk, err := k.Next()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, err := NewKeys(tlsChaCha20Poly1305Sha256, want)
	if err != nil {
		t.Fatal(err)
	}
	if nk.iv != wantKeys.iv {
		t.Errorf("next iv = %x want %x", nk.iv, wantKeys.iv)
	}
}
