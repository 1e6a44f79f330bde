package zmapquic

import (
	"bytes"
	"context"
	"net/netip"
	"slices"
	"testing"
	"time"

	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
)

// probeIDs is the (dcid, scid) pair s puts into addr's probe.
func (s *Scanner) probeIDs(addr netip.Addr) (dcid, scid quicwire.ConnID) {
	ids := s.probeSum(addr, new(idScratch))
	return quicwire.ConnID(ids[0:8]), quicwire.ConnID(ids[8:16])
}

// TestProbeIDsArePermutationOfAddress: the IDs are a keyed permutation
// of the address, not a hash of it. One address always gets the same 16
// bytes, in either of its forms; no two addresses of a /12 share theirs;
// and another Scanner's key gives other IDs.
func TestProbeIDsArePermutationOfAddress(t *testing.T) {
	s := &Scanner{}
	id := func(s *Scanner, a netip.Addr) [16]byte {
		return [16]byte(s.probeSum(a, new(idScratch)))
	}
	addr := netip.MustParseAddr("100.64.1.2")
	if id(s, addr) != id(s, addr) {
		t.Error("one address, two sets of IDs")
	}
	if id(s, addr) != id(s, netip.AddrFrom16(addr.As16())) {
		t.Error("an address and its IPv4-mapped form disagree")
	}
	if id(s, addr) == id(&Scanner{}, addr) {
		t.Error("two Scanners derived the same IDs")
	}

	var scratch idScratch
	ids := make([][16]byte, 1<<20)
	base := netip.MustParsePrefix("100.64.0.0/12").Addr().As4()
	for i := range ids {
		a := netip.AddrFrom4([4]byte{base[0], base[1] | byte(i>>16), byte(i >> 8), byte(i)})
		ids[i] = [16]byte(s.probeSum(a, &scratch))
	}
	slices.SortFunc(ids, func(a, b [16]byte) int { return bytes.Compare(a[:], b[:]) })
	if distinct := len(slices.Compact(ids)); distinct != 1<<20 {
		t.Errorf("the %d addresses of a /12 have %d distinct IDs", 1<<20, distinct)
	}
}

// TestCollectorRejectsNearMisses: a response must echo both IDs of the
// address it comes from, bit for bit. One flipped bit in either, or the
// neighbouring address's valid answer, is rejected and counted; so is a
// valid answer longer than the collector's buffer, which it reads
// truncated.
func TestCollectorRejectsNearMisses(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	s := &Scanner{Conn: pc}
	addr, neighbour := netip.MustParseAddr("203.0.113.8"), netip.MustParseAddr("203.0.113.9")
	answerWith := func(from netip.Addr, flipDst, flipSrc byte, versions []quicwire.Version) []byte {
		dcid, scid := s.probeIDs(from)
		dst, src := append(quicwire.ConnID(nil), scid...), append(quicwire.ConnID(nil), dcid...)
		dst[3] ^= flipDst
		src[5] ^= flipSrc
		return quicwire.AppendVersionNegotiation(nil, dst, src, 0x2a, versions)
	}
	answer := func(from netip.Addr, flipDst, flipSrc byte) []byte {
		return answerWith(from, flipDst, flipSrc, []quicwire.Version{quicwire.Version1})
	}
	bad := [][]byte{answer(addr, 0x10, 0), answer(addr, 0, 0x01), answer(neighbour, 0, 0)}
	for i, pkt := range bad {
		if _, ok := s.ValidateResponse(addr, pkt); ok {
			t.Errorf("near miss %d validates", i)
		}
	}
	long := answerWith(addr, 0, 0, make([]quicwire.Version, recvBufSize/4))
	if _, ok := s.ValidateResponse(addr, long); !ok || len(long) <= recvBufSize {
		t.Fatalf("the %d-byte answer does not validate whole, or fits a %d-byte buffer", len(long), recvBufSize)
	}
	bad = append(bad, long)

	// Through the collector: the three near misses and the long answer,
	// then the real answer.
	peer, err := n.ListenUDP(netip.AddrPortFrom(addr, 443))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range append(bad, answer(addr, 0, 0)) {
		if _, err := peer.WriteTo(pkt, pc.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	before := mInvalidResp.Value()
	ctx, cancel := context.WithCancel(context.Background())
	var hits []Result
	responses, invalid := s.CollectResponsesOn(ctx, pc, func(r Result) {
		hits = append(hits, r)
		cancel() // the real answer was written last
	})
	if invalid != len(bad) || mInvalidResp.Value()-before != uint64(len(bad)) {
		t.Errorf("collector counted %d invalid responses, zmapquic_invalid_responses_total moved by %d, want %d",
			invalid, mInvalidResp.Value()-before, len(bad))
	}
	if responses != 1 || len(hits) != 1 || hits[0].Addr != addr {
		t.Errorf("%d responses, hits = %v, want one from %v", responses, hits, addr)
	}
}

// TestMappedAddressIsItsIPv4Address: a target given in IPv4-mapped form
// is the IPv4 address to every part of the scanner. A blocklisted one is
// never probed, on either send path; one that answers is addressed,
// reported and remembered as the IPv4 address, so no later pass
// re-probes it.
func TestMappedAddressIsItsIPv4Address(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	n.SetSyntheticResponder(vnResponder([]quicwire.Version{quicwire.Version1}, 0))
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	s := &Scanner{
		Conn:      pc,
		Cooldown:  50 * time.Millisecond,
		Retries:   2,
		Blocklist: newBlocklist(netip.MustParsePrefix("10.0.0.0/8")),
	}
	blocked := netip.MustParseAddr("::ffff:10.1.2.3")
	sentBefore, blockedBefore := mProbesSent.Value(), mBlocked.Value()

	if sent, err := s.SendProbe(blocked); sent || err != nil {
		t.Errorf("SendProbe(%v): sent=%v err=%v, want the blocklist to hold", blocked, sent, err)
	}
	results, stats, err := s.ScanAddrs(context.Background(), []netip.Addr{blocked})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocked != 1 || stats.ProbesSent != 0 || len(results) != 0 {
		t.Errorf("ScanAddrs(%v): %d results, stats %+v, want 1 blocked and no probe", blocked, len(results), stats)
	}
	if got := mBlocked.Value() - blockedBefore; got != 2 {
		t.Errorf("zmapquic_blocked_total moved by %d, want 2 (one per path)", got)
	}
	if got := mProbesSent.Value() - sentBefore; got != 0 {
		t.Errorf("%d probes left for a blocked address", got)
	}
	if datagrams, _ := n.UDPTraffic(); datagrams != 0 {
		t.Errorf("%d datagrams crossed the network for a blocked address", datagrams)
	}

	v4 := netip.MustParseAddr("203.0.113.8")
	results, stats, err = s.ScanAddrs(context.Background(), []netip.Addr{netip.AddrFrom16(v4.As16())})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ProbesSent != 1 || stats.Reprobes != 0 {
		t.Errorf("stats = %+v, want the one probe that was answered and no re-probe", stats)
	}
	if len(results) != 1 || results[0].Addr != v4 {
		t.Errorf("results = %v, want one, from %v", results, v4)
	}
}
