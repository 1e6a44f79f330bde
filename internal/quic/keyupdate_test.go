package quic

import (
	"bytes"
	"context"
	"crypto/tls"
	"io"
	"testing"

	"quicscan/internal/quiccrypto"
)

// TestKeyUpdateRoundTrips: the client initiates a key update; both
// directions keep working across multiple generations.
func TestKeyUpdateRoundTrips(t *testing.T) {
	scfg, pool := serverConfig(t, "ku.test")
	_, addr := startServer(t, scfg, ServerPolicy{})

	conn, err := Dial(context.Background(), newUDP(t), addr, clientConfig(pool, "ku.test"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	echo := func(msg string) {
		t.Helper()
		s, err := conn.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		s.Write([]byte(msg))
		s.Close()
		resp, err := io.ReadAll(s)
		if err != nil {
			t.Fatalf("echo %q: %v", msg, err)
		}
		if !bytes.EqualFold(resp, []byte(msg)) {
			t.Fatalf("echo %q = %q", msg, resp)
		}
	}

	echo("generation zero")
	for gen := 1; gen <= 3; gen++ {
		if err := conn.UpdateKeys(); err != nil {
			t.Fatalf("update %d: %v", gen, err)
		}
		echo("after update")
	}
	// The key phase must have flipped an odd number of times.
	conn.mu.Lock()
	phase := conn.spaces[spaceApp].sendPhase
	conn.mu.Unlock()
	if !phase {
		t.Error("key phase did not end up flipped after three updates")
	}
}

// TestKeyUpdateBeforeHandshakeRejected guards the precondition.
func TestKeyUpdateBeforeHandshakeRejected(t *testing.T) {
	c := newConn(&Config{}, true)
	if err := c.UpdateKeys(); err == nil {
		t.Error("key update before handshake accepted")
	}
}

// TestKeysNextDerivation checks the key-update derivation directly:
// consecutive generations differ, derivation is deterministic, and
// header protection stays constant.
func TestKeysNextDerivation(t *testing.T) {
	secret := bytes.Repeat([]byte{7}, 32)
	k0, err := quiccrypto.NewKeys(tls.TLS_AES_128_GCM_SHA256, secret)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := k0.Next()
	if err != nil {
		t.Fatal(err)
	}
	k1b, err := k0.Next()
	if err != nil {
		t.Fatal(err)
	}

	// Generation 1 must decrypt what generation 1 sealed, and
	// generation 0 must not.
	pkt, pnOff := buildShortPacket(t, k1, 5)
	cp := append([]byte(nil), pkt...)
	if _, _, _, err := k1b.OpenPacket(cp, pnOff, 4); err != nil {
		t.Errorf("same-generation decrypt failed: %v", err)
	}
	cp = append(cp[:0], pkt...)
	if _, _, _, err := k0.OpenPacket(cp, pnOff, 4); err == nil {
		t.Error("previous generation decrypted next-generation packet")
	}
	// And the chain continues.
	if _, err := k1.Next(); err != nil {
		t.Errorf("second update: %v", err)
	}
}

func buildShortPacket(t *testing.T, k *quiccrypto.Keys, pn uint64) ([]byte, int) {
	t.Helper()
	dst := make([]byte, 8)
	b := append([]byte{0x41}, dst...)
	pnOff := len(b)
	b = append(b, byte(pn>>8), byte(pn))
	b = append(b, []byte("payload-bytes")...)
	return k.SealPacket(b, pnOff, 2, pn), pnOff
}
