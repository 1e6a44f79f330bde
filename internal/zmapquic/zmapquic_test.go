package zmapquic

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"quicscan/internal/netbatch"
	"quicscan/internal/pcap"
	"quicscan/internal/quicwire"
	"quicscan/internal/simnet"
)

func TestBuildProbeShape(t *testing.T) {
	s := &Scanner{}
	addr := netip.MustParseAddr("192.0.2.1")
	probe := s.BuildProbe(addr)
	if len(probe) != ProbeSize {
		t.Fatalf("probe size = %d", len(probe))
	}
	hdr, _, err := quicwire.ParseLongHeader(probe)
	if err != nil {
		t.Fatalf("probe does not parse: %v", err)
	}
	if hdr.Type != quicwire.PacketInitial {
		t.Errorf("type = %v", hdr.Type)
	}
	if !hdr.Version.IsForcedNegotiation() {
		t.Errorf("version %v does not force negotiation", hdr.Version)
	}
	if len(hdr.DstID) != 8 || len(hdr.SrcID) != 8 {
		t.Errorf("connection IDs: %d/%d bytes", len(hdr.DstID), len(hdr.SrcID))
	}
	// Deterministic per address, distinct across addresses.
	p2 := s.BuildProbe(addr)
	if string(p2) != string(probe) {
		t.Error("probe not deterministic")
	}
	other := s.BuildProbe(netip.MustParseAddr("192.0.2.2"))
	if string(other) == string(probe) {
		t.Error("different targets share a probe")
	}
}

func TestNoPaddingProbe(t *testing.T) {
	s := &Scanner{NoPadding: true}
	probe := s.BuildProbe(netip.MustParseAddr("192.0.2.1"))
	if len(probe) != 64 {
		t.Fatalf("probe size = %d", len(probe))
	}
	if _, _, err := quicwire.ParseLongHeader(probe); err != nil {
		t.Fatalf("unpadded probe does not parse: %v", err)
	}
}

func TestValidateResponse(t *testing.T) {
	s := &Scanner{}
	addr := netip.MustParseAddr("192.0.2.1")
	dcid, scid := s.probeIDs(addr)
	versions := []quicwire.Version{quicwire.VersionDraft29, quicwire.VersionGoogleQ050}

	// Correct echo: dst = our scid, src = our dcid.
	pkt := quicwire.AppendVersionNegotiation(nil, scid, dcid, 0x11, versions)
	got, ok := s.ValidateResponse(addr, pkt)
	if !ok || len(got) != 2 || got[0] != quicwire.VersionDraft29 {
		t.Fatalf("valid response rejected: %v %v", got, ok)
	}

	// Swapped IDs (spoofed or corrupt) must be rejected.
	pkt = quicwire.AppendVersionNegotiation(nil, dcid, scid, 0x11, versions)
	if _, ok := s.ValidateResponse(addr, pkt); ok {
		t.Error("swapped-ID response accepted")
	}
	// Response attributed to the wrong address must be rejected.
	if _, ok := s.ValidateResponse(netip.MustParseAddr("192.0.2.9"), pkt); ok {
		t.Error("wrong-address response accepted")
	}
	// Garbage.
	if _, ok := s.ValidateResponse(addr, []byte{1, 2, 3}); ok {
		t.Error("garbage accepted")
	}
}

// TestValidateReservedOnlyVersions: a VN reply whose list contains
// only reserved (grease) versions is still a valid answer — the
// target counts as ZMap-visible, the versions come back unfiltered
// for the analysis layer to bucket, and nothing panics. Greasing
// servers (quiche-style) produce such lists.
func TestValidateReservedOnlyVersions(t *testing.T) {
	s := &Scanner{}
	addr := netip.MustParseAddr("192.0.2.1")
	dcid, scid := s.probeIDs(addr)
	reserved := []quicwire.Version{0x0a0a0a0a, 0xfafafafa}

	pkt := quicwire.AppendVersionNegotiation(nil, scid, dcid, 0x11, reserved)
	got, ok := s.ValidateResponse(addr, pkt)
	if !ok {
		t.Fatal("reserved-only VN reply rejected")
	}
	if len(got) != 2 || got[0] != 0x0a0a0a0a || got[1] != 0xfafafafa {
		t.Fatalf("versions = %v", got)
	}
	for _, v := range got {
		if !v.IsForcedNegotiation() {
			t.Errorf("version %v not classified as reserved", v)
		}
	}

	// An empty version list parses as a VN packet with no versions;
	// the scanner must tolerate it, not crash.
	pkt = quicwire.AppendVersionNegotiation(nil, scid, dcid, 0x11, nil)
	got, ok = s.ValidateResponse(addr, pkt)
	if !ok {
		t.Fatal("empty VN reply rejected")
	}
	if len(got) != 0 {
		t.Fatalf("versions = %v", got)
	}
}

// TestScanOverSimnet runs the scanner against a synthetic responder
// population: addresses ending in even octets answer with a version
// set, odd ones are silent.
func TestScanOverSimnet(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()

	versions := []quicwire.Version{quicwire.VersionDraft29, quicwire.VersionDraft28, quicwire.VersionDraft27}
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		if dst.Port() != 443 || len(payload) < quicwire.MinInitialSize {
			return nil
		}
		hdr, _, err := quicwire.ParseLongHeader(payload)
		if err != nil || !hdr.Version.IsForcedNegotiation() {
			return nil
		}
		if dst.Addr().As4()[3]%2 != 0 {
			return nil // odd addresses: no QUIC
		}
		return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0x2a, versions)}
	})

	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	s := &Scanner{Conn: pc, Cooldown: 100 * time.Millisecond}

	var targets []netip.Addr
	for i := 1; i <= 40; i++ {
		targets = append(targets, netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}))
	}
	results, stats, err := s.ScanAddrs(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ProbesSent != 40 {
		t.Errorf("probes sent = %d", stats.ProbesSent)
	}
	if stats.BytesSent != int64(40*ProbeSize) {
		t.Errorf("bytes sent = %d", stats.BytesSent)
	}
	if len(results) != 20 {
		t.Fatalf("results = %d, want 20", len(results))
	}
	for _, r := range results {
		if r.Addr.As4()[3]%2 != 0 {
			t.Errorf("odd address %v responded", r.Addr)
		}
		if len(r.Versions) != 3 || r.Versions[0] != quicwire.VersionDraft29 {
			t.Errorf("versions = %v", r.Versions)
		}
	}
}

func TestScanRateLimiting(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	pc, _ := n.DialUDP()
	s := &Scanner{Conn: pc, Rate: 100, Cooldown: time.Millisecond}

	var targets []netip.Addr
	for i := 1; i <= 20; i++ {
		targets = append(targets, netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}))
	}
	start := time.Now()
	_, stats, err := s.ScanAddrs(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if stats.ProbesSent != 20 {
		t.Errorf("sent %d", stats.ProbesSent)
	}
	// 20 probes at 100pps needs roughly 200ms (burst allowance makes
	// it shorter; just assert it is not instantaneous).
	if elapsed < 50*time.Millisecond {
		t.Errorf("scan finished in %v, rate limit ineffective", elapsed)
	}
}

// TestScanContextCancel cancels a scan twice: paced, where the loop is
// blocked on the limiter, and unpaced, where it only looks between
// batches. Either way ScanAddrs returns the context's error promptly
// and reports exactly the probes that left the socket.
func TestScanContextCancel(t *testing.T) {
	targets := make([]netip.Addr, 1<<16)
	for i := range targets {
		targets[i] = netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
	}
	arrivals := func(n *simnet.Network) *atomic.Int64 {
		var got atomic.Int64
		n.SetSyntheticResponder(func(netip.AddrPort, []byte) [][]byte {
			got.Add(1)
			return nil
		})
		return &got
	}

	t.Run("paced", func(t *testing.T) {
		n := simnet.New(simnet.Config{})
		defer n.Close()
		got := arrivals(n)
		pc, _ := n.DialUDP()
		s := &Scanner{Conn: pc, Rate: 10, Cooldown: time.Hour}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, stats, err := s.ScanAddrs(ctx, targets)
		if err != context.DeadlineExceeded {
			t.Errorf("err = %v, want the context's", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("a scan cancelled after 50 ms returned after %v", d)
		}
		if stats.ProbesSent != int(got.Load()) || stats.ProbesSent < 1 || stats.ProbesSent > 3 {
			t.Errorf("reported %d probes, %d arrived; want the one starting token and what 50 ms at 10/s adds",
				stats.ProbesSent, got.Load())
		}
	})

	t.Run("unpaced", func(t *testing.T) {
		n := simnet.New(simnet.Config{})
		defer n.Close()
		got := arrivals(n)
		pc, _ := n.DialUDP()
		// The context dies while the third batch is being written.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s := &Scanner{Conn: &cancelAtBatch{pc, 3, cancel}, Cooldown: time.Hour}
		_, stats, err := s.ScanAddrs(ctx, targets)
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if want := 3 * SendBatchSize; stats.ProbesSent != want || int(got.Load()) != want {
			t.Errorf("reported %d probes, %d arrived; want %d: nothing after the batch in flight at the cancel",
				stats.ProbesSent, got.Load(), want)
		}
		if stats.BytesSent != int64(stats.ProbesSent*ProbeSize) {
			t.Errorf("%d bytes for %d probes", stats.BytesSent, stats.ProbesSent)
		}
	})
}

// cancelAtBatch is a simnet socket that cancels a context during its
// at-th WriteBatch.
type cancelAtBatch struct {
	*simnet.PacketConn
	at     int
	cancel context.CancelFunc
}

func (c *cancelAtBatch) WriteBatch(ms []netbatch.Message) (int, error) {
	if c.at--; c.at == 0 {
		c.cancel()
	}
	return c.PacketConn.WriteBatch(ms)
}

// sweepOrder is the sweep's address sequence: every position of the
// permutation domain in order, the walk of shard 0 of 1.
func sweepOrder(sw *Sweep) []netip.Addr {
	var order []netip.Addr
	for x := uint64(0); x < sw.DomainSize(); x++ {
		if a, ok := sw.AddrAtPosition(x); ok {
			order = append(order, a)
		}
	}
	return order
}

func TestSweepVisitsEveryAddressOnce(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("192.0.2.0/28"),
		netip.MustParsePrefix("198.51.100.0/30"),
	}
	sw := NewSweep(42, prefixes)
	if sw.Total() != 16+4 {
		t.Fatalf("total = %d", sw.Total())
	}
	seen := make(map[netip.Addr]int)
	order := sweepOrder(sw)
	for _, a := range order {
		seen[a]++
	}
	if len(seen) != 20 {
		t.Fatalf("visited %d distinct addresses", len(seen))
	}
	for a, count := range seen {
		if count != 1 {
			t.Errorf("%v visited %d times", a, count)
		}
		covered := false
		for _, p := range prefixes {
			if p.Contains(a) {
				covered = true
			}
		}
		if !covered {
			t.Errorf("%v outside prefixes", a)
		}
	}
	// The order must not be strictly sequential (the permutation
	// scatters probes across networks).
	sequentialRuns := 0
	for i := 1; i < len(order); i++ {
		prev := order[i-1].As4()
		cur := order[i].As4()
		if cur[3] == prev[3]+1 {
			sequentialRuns++
		}
	}
	if sequentialRuns > len(order)/2 {
		t.Errorf("order looks sequential (%d/%d adjacent steps)", sequentialRuns, len(order))
	}
	// Determinism under the same seed, difference under another.
	order2 := sweepOrder(NewSweep(42, prefixes))
	for i := range order {
		if order[i] != order2[i] {
			t.Fatal("same seed produced different order")
		}
	}
}

func TestSweepLargePrefix(t *testing.T) {
	sw := NewSweep(7, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/16")})
	if count := len(sweepOrder(sw)); count != 65536 {
		t.Errorf("visited %d of 65536", count)
	}
}

func TestBlocklist(t *testing.T) {
	bl, err := ParseBlocklist(strings.NewReader(`
# excluded networks
192.0.2.0/25
198.51.100.7     # single host
2001:db8:dead::/48
::ffff:203.0.113.0/120
`))
	if err != nil {
		t.Fatal(err)
	}
	if bl.Len() != 4 {
		t.Fatalf("len = %d", bl.Len())
	}
	cases := []struct {
		addr    string
		blocked bool
	}{
		{"192.0.2.5", true},
		{"192.0.2.200", false}, // outside the /25
		{"198.51.100.7", true},
		{"198.51.100.8", false},
		{"2001:db8:dead::1", true},
		{"2001:db8:beef::1", false},
		// An IPv4 address and its IPv4-mapped form are one address, on
		// either side of the comparison.
		{"::ffff:192.0.2.5", true},
		{"::ffff:192.0.2.200", false},
		{"203.0.113.9", true},
		{"::ffff:203.0.113.9", true},
	}
	for _, c := range cases {
		if got := bl.blocked(netip.MustParseAddr(c.addr)); got != c.blocked {
			t.Errorf("Blocked(%s) = %v", c.addr, got)
		}
	}
	// Nil blocklist blocks nothing.
	var nilBL *Blocklist
	if nilBL.blocked(netip.MustParseAddr("192.0.2.5")) || nilBL.Len() != 0 {
		t.Error("nil blocklist misbehaves")
	}
	// Malformed lines error out with the line number.
	if _, err := ParseBlocklist(strings.NewReader("not-an-address\n")); err == nil {
		t.Error("malformed blocklist accepted")
	}
}

func TestScanHonoursBlocklist(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		hdr, _, err := quicwire.ParseLongHeader(payload)
		if err != nil || !hdr.Version.IsForcedNegotiation() {
			return nil
		}
		return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0,
			[]quicwire.Version{quicwire.VersionDraft29})}
	})

	pc, _ := n.DialUDP()
	s := &Scanner{
		Conn:      pc,
		Cooldown:  100 * time.Millisecond,
		Blocklist: newBlocklist(netip.MustParsePrefix("203.0.113.0/28")),
	}
	var targets []netip.Addr
	for i := 1; i <= 30; i++ {
		targets = append(targets, netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}))
	}
	results, stats, err := s.ScanAddrs(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocked != 15 { // .1-.15 inside /28
		t.Errorf("blocked = %d", stats.Blocked)
	}
	if stats.ProbesSent != 15 {
		t.Errorf("probes = %d", stats.ProbesSent)
	}
	for _, r := range results {
		if r.Addr.As4()[3] <= 15 {
			t.Errorf("blocked address %v probed", r.Addr)
		}
	}
}

// TestSweepBijectionProperty checks with random prefix sets that the
// permuted sweep is a bijection over exactly the prefix union.
func TestSweepBijectionProperty(t *testing.T) {
	f := func(seed uint64, aOct, bOct uint8, aBits, bBits uint8) bool {
		pa := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, aOct, 0, 0}), 26+int(aBits%7))
		pb := netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, bOct, 0}), 26+int(bBits%7))
		sw := NewSweep(seed, []netip.Prefix{pa, pb})
		seen := make(map[netip.Addr]bool)
		for _, a := range sweepOrder(sw) {
			if seen[a] {
				return false // duplicate
			}
			if !pa.Contains(a) && !pb.Contains(a) {
				return false // escaped the prefixes
			}
			seen[a] = true
		}
		return uint64(len(seen)) == sw.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestScanWithCapture verifies raw traffic capture: one probe out and
// one version negotiation back per responding target.
func TestScanWithCapture(t *testing.T) {
	n := simnet.New(simnet.Config{})
	defer n.Close()
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		hdr, _, err := quicwire.ParseLongHeader(payload)
		if err != nil || !hdr.Version.IsForcedNegotiation() {
			return nil
		}
		return [][]byte{quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0,
			[]quicwire.Version{quicwire.VersionDraft29})}
	})
	pc, _ := n.DialUDP()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := &Scanner{Conn: pc, Cooldown: 100 * time.Millisecond, Capture: w}
	targets := []netip.Addr{
		netip.MustParseAddr("203.0.113.1"),
		netip.MustParseAddr("203.0.113.2"),
	}
	results, _, err := s.ScanAddrs(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// Two probes + two responses.
	if w.Count() != 4 {
		t.Errorf("captured %d packets, want 4", w.Count())
	}
	if buf.Len() <= 24 {
		t.Error("capture file empty")
	}
}

// TestScanWithCaptureOnKernelSocket: on a kernel socket bound to the
// wildcard, as cmd/zmapquic binds its own, the socket has no address of
// its own to put in the synthesized IP header; the target's family's
// unspecified address stands in, and every probe and every response is
// captured. (simnet's sockets have a concrete IPv4 address, so
// TestScanWithCapture cannot see this.)
func TestScanWithCaptureOnKernelSocket(t *testing.T) {
	responder, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer responder.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, from, err := responder.ReadFrom(buf)
			if err != nil {
				return
			}
			if hdr, _, err := quicwire.ParseLongHeader(buf[:n]); err == nil && hdr.Version.IsForcedNegotiation() {
				responder.WriteTo(quicwire.AppendVersionNegotiation(nil, hdr.SrcID, hdr.DstID, 0,
					[]quicwire.Version{quicwire.VersionDraft29}), from)
			}
		}
	}()
	pc, err := net.ListenPacket("udp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := &Scanner{Conn: pc, Port: uint16(responder.LocalAddr().(*net.UDPAddr).Port), Cooldown: 200 * time.Millisecond, Capture: w}
	results, stats, err := s.ScanAddrs(context.Background(), []netip.Addr{netip.MustParseAddr("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || stats.ProbesSent != 1 {
		t.Fatalf("%d results from %d probes, want 1 of each", len(results), stats.ProbesSent)
	}
	if got, want := w.Count(), stats.ProbesSent+stats.Responses; got != want || w.Err() != nil {
		t.Errorf("captured %d packets (error %v), want %d: the probes and the responses", got, w.Err(), want)
	}
}

// TestSweepOverlappingPrefixes: overlapping inputs must be coalesced
// so the overlapped range is visited once, not twice.
func TestSweepOverlappingPrefixes(t *testing.T) {
	sw := NewSweep(11, []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/24"),
		netip.MustParsePrefix("10.0.0.128/25"), // contained in the /24
	})
	if sw.Total() != 256 {
		t.Fatalf("total = %d, want 256 (overlap double-counted)", sw.Total())
	}
	seen := make(map[netip.Addr]int)
	for _, a := range sweepOrder(sw) {
		seen[a]++
	}
	if len(seen) != 256 {
		t.Fatalf("visited %d distinct addresses, want 256", len(seen))
	}
	for a, count := range seen {
		if count != 1 {
			t.Errorf("%v visited %d times", a, count)
		}
	}
}

// TestSweepDuplicatePrefixes: identical prefixes collapse to one.
func TestSweepDuplicatePrefixes(t *testing.T) {
	sw := NewSweep(3, []netip.Prefix{
		netip.MustParsePrefix("192.0.2.0/28"),
		netip.MustParsePrefix("192.0.2.0/28"),
	})
	if sw.Total() != 16 {
		t.Fatalf("total = %d, want 16", sw.Total())
	}
}

// TestSweepTopOfAddressSpace: a prefix abutting 255.255.255.255 must
// enumerate exactly its own addresses — the base+offset arithmetic
// must not wrap around to 0.0.0.0.
func TestSweepTopOfAddressSpace(t *testing.T) {
	p := netip.MustParsePrefix("255.255.255.0/24")
	sw := NewSweep(5, []netip.Prefix{p})
	if sw.Total() != 256 {
		t.Fatalf("total = %d", sw.Total())
	}
	seen := make(map[netip.Addr]bool)
	for _, a := range sweepOrder(sw) {
		if !p.Contains(a) {
			t.Fatalf("%v escaped %v (wrapped address arithmetic)", a, p)
		}
		seen[a] = true
	}
	if len(seen) != 256 {
		t.Errorf("visited %d addresses, want 256", len(seen))
	}
	if !seen[netip.MustParseAddr("255.255.255.255")] {
		t.Error("broadcast-most address missed")
	}
}

// TestSweepAddrAtGuards: out-of-domain indexes report !ok instead of
// fabricating an address.
func TestSweepAddrAtGuards(t *testing.T) {
	sw := NewSweep(1, []netip.Prefix{netip.MustParsePrefix("10.0.0.0/30")})
	if _, ok := sw.addrAt(sw.Total()); ok {
		t.Error("index past total mapped to an address")
	}
	if a, ok := sw.addrAt(3); !ok || a != netip.MustParseAddr("10.0.0.3") {
		t.Errorf("addrAt(3) = %v, %v", a, ok)
	}
}

// TestSweepEveryPositionIsAnAddress: AddrAtPosition maps [0, Total)
// one to one onto the prefix union, whatever Total is (a power of two or
// of four, one past either, odd, tiny), and nothing at Total.
func TestSweepEveryPositionIsAnAddress(t *testing.T) {
	pfx := func(ss ...string) []netip.Prefix {
		var ps []netip.Prefix
		for _, s := range ss {
			ps = append(ps, netip.MustParsePrefix(s))
		}
		return ps
	}
	for _, c := range []struct {
		prefixes []netip.Prefix
		total    uint64
	}{
		{pfx("10.0.0.1/32"), 1},
		{pfx("10.0.0.0/31"), 2},
		{pfx("10.0.0.0/31", "10.9.0.0/32"), 3},
		{pfx("10.0.0.0/21"), 1 << 11},
		{pfx("10.0.0.0/20"), 1 << 12},
		{pfx("10.0.0.0/21", "192.0.2.9/32"), 1<<11 + 1},
		{pfx("10.0.0.0/20", "192.0.2.9/32"), 1<<12 + 1},
		{pfx("100.64.0.0/12", "100.80.0.0/24"), 1<<20 + 1<<8},
		{pfx("10.0.0.0/24", "10.0.0.128/25", "10.0.0.64/30", "10.0.1.0/30"), 260},
		{pfx("255.255.255.0/24", "0.0.0.0/30", "255.255.254.255/32"), 261},
	} {
		sw := NewSweep(11, c.prefixes)
		if sw.Total() != c.total || sw.DomainSize() != c.total {
			t.Fatalf("%v: Total %d, DomainSize %d, want %d", c.prefixes, sw.Total(), sw.DomainSize(), c.total)
		}
		got := make([]uint32, 0, c.total)
		for x := uint64(0); x < c.total; x++ {
			a, ok := sw.AddrAtPosition(x)
			if !ok {
				t.Fatalf("%v: position %d of %d is no address", c.prefixes, x, c.total)
			}
			inside := false
			for _, p := range c.prefixes {
				inside = inside || p.Contains(a)
			}
			if !inside {
				t.Fatalf("%v: position %d is %v, outside the prefixes", c.prefixes, x, a)
			}
			got = append(got, binary.BigEndian.Uint32(a.AsSlice()))
		}
		slices.Sort(got)
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("%v: two positions map to address %#x", c.prefixes, got[i])
			}
		}
		if _, ok := sw.AddrAtPosition(c.total); ok {
			t.Fatalf("%v: position Total maps to an address", c.prefixes)
		}
	}
}

// newBlocklist builds a blocklist from prefixes.
func newBlocklist(prefixes ...netip.Prefix) *Blocklist {
	b := &Blocklist{}
	for _, p := range prefixes {
		b.add(p)
	}
	return b
}
