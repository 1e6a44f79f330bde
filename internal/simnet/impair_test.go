package simnet

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"quicscan/internal/telemetry"
)

// drain reads every datagram arriving at pc within the window and
// returns the payloads in arrival order.
func drain(t *testing.T, pc *PacketConn, window time.Duration) []string {
	t.Helper()
	var out []string
	buf := make([]byte, 2048)
	pc.SetReadDeadline(time.Now().Add(window))
	for {
		n, _, err := pc.ReadFrom(buf)
		if err != nil {
			return out
		}
		out = append(out, string(buf[:n]))
	}
}

func TestPerPrefixProfile(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Close()
	n.SetPrefixProfile(netip.MustParsePrefix("198.51.100.0/24"), Profile{Loss: 1})

	lossy, err := n.ListenUDP(ap("198.51.100.7:443"))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := n.ListenUDP(ap("192.0.2.7:443"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		cli.WriteTo([]byte("x"), lossy.LocalAddr())
		cli.WriteTo([]byte("x"), clean.LocalAddr())
	}
	if got := drain(t, lossy, 100*time.Millisecond); len(got) != 0 {
		t.Errorf("lossy prefix delivered %d datagrams, want 0", len(got))
	}
	if got := drain(t, clean, 100*time.Millisecond); len(got) != 20 {
		t.Errorf("clean prefix delivered %d datagrams, want 20", len(got))
	}
	// The lossy prefix impairs both directions: replies FROM it are
	// judged under the same profile.
	if _, err := lossy.WriteTo([]byte("y"), cli.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cli, 100*time.Millisecond); len(got) != 0 {
		t.Errorf("reverse path delivered %d datagrams, want 0", len(got))
	}

	st := n.ImpairmentStats()
	if st.Lost != 21 || st.Delivered != 20 {
		t.Errorf("impairments = %+v, want Lost=21 Delivered=20", st)
	}
}

func TestLossDeterministicUnderSeed(t *testing.T) {
	run := func(seed uint64) []string {
		n := New(Config{Seed: seed, Profile: Profile{Loss: 0.4}})
		defer n.Close()
		srv, err := n.ListenUDP(ap("192.0.2.1:443"))
		if err != nil {
			t.Fatal(err)
		}
		cli, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			cli.WriteTo([]byte(fmt.Sprintf("%03d", i)), srv.LocalAddr())
		}
		return drain(t, srv, 100*time.Millisecond)
	}

	a, b := run(7), run(7)
	if len(a) == 0 || len(a) == 100 {
		t.Fatalf("degenerate survivor count %d", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed, different outcomes:\n%v\n%v", a, b)
	}
	if c := run(8); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Errorf("different seeds produced identical outcomes")
	}
}

func TestJitterReordersDelivery(t *testing.T) {
	n := New(Config{Seed: 3, Profile: Profile{
		Latency: 4 * time.Millisecond,
		Jitter:  3 * time.Millisecond,
		Reorder: 0.3,
	}})
	defer n.Close()
	srv, err := n.ListenUDP(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	const total = 60
	for i := 0; i < total; i++ {
		cli.WriteTo([]byte(fmt.Sprintf("%03d", i)), srv.LocalAddr())
	}
	got := drain(t, srv, 300*time.Millisecond)
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	inversions := 0
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("jitter+reorder profile delivered everything in order")
	}
	if st := n.ImpairmentStats(); st.Reordered == 0 {
		t.Errorf("impairments = %+v, want Reordered > 0", st)
	}
}

func TestDuplicationAndCorruption(t *testing.T) {
	n := New(Config{Seed: 5, Profile: Profile{Duplicate: 1}})
	defer n.Close()
	srv, err := n.ListenUDP(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	cli.WriteTo([]byte("dup"), srv.LocalAddr())
	if got := drain(t, srv, 100*time.Millisecond); len(got) != 2 {
		t.Errorf("duplication delivered %d copies, want 2", len(got))
	}
	if st := n.ImpairmentStats(); st.Duplicated != 1 || st.Delivered != 2 {
		t.Errorf("impairments = %+v, want Duplicated=1 Delivered=2", st)
	}

	n2 := New(Config{Seed: 5, Profile: Profile{Corrupt: 1}})
	defer n2.Close()
	srv2, err := n2.ListenUDP(ap("192.0.2.2:443"))
	if err != nil {
		t.Fatal(err)
	}
	cli2, err := n2.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	cli2.WriteTo([]byte("payload"), srv2.LocalAddr())
	got := drain(t, srv2, 100*time.Millisecond)
	if len(got) != 1 || got[0] == "payload" {
		t.Errorf("corruption: got %q, want one altered copy", got)
	}
	if st := n2.ImpairmentStats(); st.Corrupted != 1 {
		t.Errorf("impairments = %+v, want Corrupted=1", st)
	}
}

func TestMTUClamp(t *testing.T) {
	n := New(Config{Seed: 1, Profile: Profile{MTU: 100}})
	defer n.Close()
	srv, err := n.ListenUDP(ap("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	cli.WriteTo(make([]byte, 200), srv.LocalAddr())
	cli.WriteTo(make([]byte, 100), srv.LocalAddr())
	if got := drain(t, srv, 100*time.Millisecond); len(got) != 1 || len(got[0]) != 100 {
		t.Errorf("MTU clamp delivered %d datagrams", len(got))
	}
	if st := n.ImpairmentStats(); st.MTUDropped != 1 {
		t.Errorf("impairments = %+v, want MTUDropped=1", st)
	}
}

// TestWriteToMappedAddress: net.IPv4 builds the 16-byte form of an
// address. A datagram sent to it must reach the listener bound to the
// IPv4 form and be judged by the IPv4 prefix's profile.
func TestWriteToMappedAddress(t *testing.T) {
	n := New(Config{Seed: 1})
	defer n.Close()
	n.SetPrefixProfile(netip.MustParsePrefix("10.1.2.0/24"), Profile{MTU: 100})
	srv, err := n.ListenUDP(ap("10.1.2.3:443"))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	mapped := &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 443}
	if got := mapped.AddrPort().Addr(); !got.Is4In6() {
		t.Fatalf("%v is not the 16-byte form this test is about", got)
	}
	cli.WriteTo(make([]byte, 200), mapped)
	cli.WriteTo([]byte("fits"), mapped)
	if got := drain(t, srv, 100*time.Millisecond); len(got) != 1 || got[0] != "fits" {
		t.Errorf("listener on 10.1.2.3 received %q, want the one datagram that fits the prefix's MTU", got)
	}
	if st := n.ImpairmentStats(); st.MTUDropped != 1 {
		t.Errorf("impairments = %+v, want MTUDropped=1 under the 10.1.2.0/24 profile", st)
	}
}

// TestSyntheticImpairedBothWays: probes to synthetic endpoints and
// their replies each pay their own link's impairment.
func TestSyntheticImpairedBothWays(t *testing.T) {
	n := New(Config{Seed: 2})
	defer n.Close()
	n.SetPrefixProfile(netip.MustParsePrefix("203.0.113.0/24"), Profile{Loss: 1})
	n.SetSyntheticResponder(func(dst netip.AddrPort, payload []byte) [][]byte {
		return [][]byte{[]byte("answer")}
	})
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	// Probe toward the fully lossy prefix: never answered.
	cli.WriteTo([]byte("probe"), net.UDPAddrFromAddrPort(ap("203.0.113.9:443")))
	if got := drain(t, cli, 100*time.Millisecond); len(got) != 0 {
		t.Errorf("lossy synthetic link answered: %q", got)
	}
	// Probe toward an unimpaired synthetic address: answered.
	cli.WriteTo([]byte("probe"), net.UDPAddrFromAddrPort(ap("192.0.2.50:443")))
	if got := drain(t, cli, 100*time.Millisecond); len(got) != 1 || got[0] != "answer" {
		t.Errorf("clean synthetic link: got %q", got)
	}
}

// TestTrafficCountersExactUnderConcurrentWriters: the traffic counts
// are rows of atomics that each sender picks by its goroutine, and must
// still add up to the datagram when eight goroutines send on one
// socket: over a perfect link, and over a link to a lossy prefix that
// also delays, reorders, duplicates, corrupts and drops at its MTU.
// Each writer has a flow of its own, so its fates are the verdicts of
// indices 0..perWriter-1 at its datagram size, and replaying judge
// gives their exact sums; every fate occurs. UDPTraffic,
// ImpairmentStats and the registry's simnet_* series hold those sums,
// before Close and after it, which detaches the series.
func TestTrafficCountersExactUnderConcurrentWriters(t *testing.T) {
	const writers, perWriter, seed = 8, 20000, 3
	const sent = writers * perWriter
	// Odd writers send datagrams over the impaired link's MTU.
	size := func(w int) int { return 48 + w%2*1300 }
	dst := func(w int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(w)}), 443)
	}
	series := [numFates]string{"simnet_delivered_total", "simnet_lost_total", "simnet_corrupted_total",
		"simnet_duplicated_total", "simnet_reordered_total", "simnet_mtu_dropped_total"}
	for _, c := range []struct {
		name    string
		profile Profile
	}{
		{"perfect", Profile{}},
		{"lossy-prefix", Profile{Loss: 0.2, Latency: time.Millisecond, Reorder: 0.1, Duplicate: 0.1, Corrupt: 0.1, MTU: 1200}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := telemetry.Default().Snapshot().Counters
			n := New(Config{Seed: seed})
			defer n.Close()
			n.SetPrefixProfile(netip.MustParsePrefix("203.0.113.0/24"), c.profile)
			pc, err := n.DialUDP()
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Nobody listens at to: each datagram is judged,
					// counted and gone.
					payload := make([]byte, size(w))
					to := net.UDPAddrFromAddrPort(dst(w))
					for range perWriter {
						if _, err := pc.WriteTo(payload, to); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()

			var want [numFates]int64
			var bytes int64
			from := pc.LocalAddr().(*net.UDPAddr).AddrPort()
			for w := range writers {
				bytes += int64(perWriter * size(w))
				for i := range uint64(perWriter) {
					for f, times := range judge(c.profile, &fateKey{seed: seed, from: from, to: dst(w), index: i}, size(w)).fates {
						want[f] += int64(times)
					}
				}
			}
			for f, times := range want {
				if c.profile != (Profile{}) && times == 0 {
					t.Fatalf("no datagram met fate %d", f)
				}
			}
			check := func(when string) {
				t.Helper()
				if gotDatagrams, gotBytes := n.UDPTraffic(); gotDatagrams != sent || gotBytes != bytes {
					t.Errorf("%s: UDPTraffic() = %d datagrams, %d bytes; want %d, %d", when, gotDatagrams, gotBytes, sent, bytes)
				}
				w := func(f fate) int { return int(want[f]) }
				if got, wantStats := n.ImpairmentStats(), (ImpairmentStats{w(fateDelivered), w(fateLost), w(fateCorrupted),
					w(fateDuplicated), w(fateReordered), w(fateMTUDropped)}); got != wantStats {
					t.Errorf("%s: ImpairmentStats() = %+v, want %+v", when, got, wantStats)
				}
				now := telemetry.Default().Snapshot().Counters
				for f, name := range series {
					if got := now[name] - base[name]; got != uint64(want[f]) {
						t.Errorf("%s: %s moved by %d, want %d", when, name, got, want[f])
					}
				}
			}
			check("before Close")
			n.Close()
			check("after Close")
		})
	}
}

// TestJudgeIsAFunction: a verdict is a function of the profile, the
// datagram's key and its size. judge reads nothing else, so the same
// arguments give the same verdict, and a decision whose probability is
// 0 or 1 never depends on the draw.
func TestJudgeIsAFunction(t *testing.T) {
	const datagrams = 10000
	key := func(i uint64) *fateKey {
		return &fateKey{seed: 42, from: ap("198.18.0.1:40000"), to: ap("192.0.2.1:443"), index: i}
	}
	size := func(i uint64) int { return 1 + int(i%1500) }
	every := Profile{Loss: 0.2, Latency: 30 * time.Millisecond, Jitter: 10 * time.Millisecond,
		Reorder: 0.2, Duplicate: 0.2, Corrupt: 0.2}
	for _, c := range []struct {
		name string
		p    Profile
		// wrong says what is wrong with v as datagram i's verdict, or "".
		wrong func(i uint64, v verdict) string
	}{
		{"same key, same verdict", every, func(i uint64, v verdict) string {
			if again := judge(every, key(i), size(i)); again != v {
				return fmt.Sprintf("judged again: %+v", again)
			}
			return ""
		}},
		{"the zero profile draws nothing", Profile{}, func(_ uint64, v verdict) string {
			if v != delivered {
				return "want an immediate, unaltered delivery"
			}
			return ""
		}},
		{"Loss 1 always drops", Profile{Loss: 1, Duplicate: 1, Corrupt: 1}, func(_ uint64, v verdict) string {
			if v != (verdict{fates: [numFates]uint8{fateLost: 1}}) {
				return "want a loss"
			}
			return ""
		}},
		{"the corrupt bit is in range", Profile{Corrupt: 1}, func(i uint64, v verdict) string {
			if !v.has(fateCorrupted) || v.bit < 0 || v.bit >= 8*size(i) {
				return fmt.Sprintf("want a flipped bit in [0, %d)", 8*size(i))
			}
			return ""
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for i := uint64(0); i < datagrams; i++ {
				v := judge(c.p, key(i), size(i))
				if msg := c.wrong(i, v); msg != "" {
					t.Fatalf("datagram %d (%d bytes): %+v: %s", i, size(i), v, msg)
				}
			}
		})
	}

	// Binomial(10,000, 0.3) has a standard deviation of 46 datagrams;
	// the bound is five of them either side of 3,000.
	lost := 0
	for i := uint64(0); i < datagrams; i++ {
		if judge(Profile{Loss: 0.3}, key(i), 1200).has(fateLost) {
			lost++
		}
	}
	if lost < 2770 || lost > 3230 {
		t.Errorf("Loss 0.3 dropped %d of %d datagrams, want 3000 ± 230", lost, datagrams)
	}
}

// TestFateIgnoresOtherFlows: which of A's datagrams to B survive a
// lossy link is decided by the seed, the link and their indices, so it
// is the same whether A sends alone or while eight other sockets send
// to the same endpoints. So are the answers a synthetic endpoint sends
// back to A, each keyed by its probe and its position.
func TestFateIgnoresOtherFlows(t *testing.T) {
	const sends, others = 200, 8
	synthetic := net.UDPAddrFromAddrPort(ap("203.0.113.5:443"))
	run := func(crowd bool) (direct, answers []string) {
		n := New(Config{Seed: 9, Profile: Profile{Loss: 0.4}})
		defer n.Close()
		n.SetSyntheticResponder(func(_ netip.AddrPort, payload []byte) [][]byte {
			return [][]byte{payload, append([]byte("again "), payload...)}
		})
		b, err := n.ListenUDP(ap("192.0.2.1:443"))
		if err != nil {
			t.Fatal(err)
		}
		a, err := n.DialUDP()
		if err != nil {
			t.Fatal(err)
		}
		var started, done sync.WaitGroup
		for w := 0; crowd && w < others; w++ {
			pc, err := n.DialUDP()
			if err != nil {
				t.Fatal(err)
			}
			started.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				for i := 0; i < sends; i++ {
					pc.WriteTo([]byte("noise"), b.LocalAddr())
					pc.WriteTo([]byte("noise"), synthetic)
					if i == 0 {
						started.Done()
					}
				}
			}()
		}
		started.Wait() // the crowd is sending before A starts
		for i := 0; i < sends; i++ {
			p := fmt.Appendf(nil, "%03d", i)
			a.WriteTo(p, b.LocalAddr())
			a.WriteTo(p, synthetic)
		}
		done.Wait()
		for _, d := range drain(t, b, 50*time.Millisecond) {
			if d != "noise" {
				direct = append(direct, d)
			}
		}
		return direct, drain(t, a, 50*time.Millisecond)
	}

	direct, answers := run(false)
	if len(direct) == 0 || len(direct) == sends {
		t.Fatalf("degenerate survivor count %d of %d", len(direct), sends)
	}
	crowdDirect, crowdAnswers := run(true)
	if fmt.Sprint(direct) != fmt.Sprint(crowdDirect) {
		t.Errorf("A→B survivors changed when other flows shared the network:\nalone: %v\ncrowd: %v", direct, crowdDirect)
	}
	if fmt.Sprint(answers) != fmt.Sprint(crowdAnswers) {
		t.Errorf("synthetic answers to A changed when other flows shared the network:\nalone: %v\ncrowd: %v", answers, crowdAnswers)
	}
}

// TestPerfectFollowsProfiles: deliver skips the profile lookups only
// while no profile impairs any link, so the flag must turn off with the
// first impaired profile, default or per prefix, and back on only when
// the last of them is zero again.
func TestPerfectFollowsProfiles(t *testing.T) {
	lossy := Profile{Loss: 1}
	p1, p2 := netip.MustParsePrefix("198.51.100.0/24"), netip.MustParsePrefix("192.0.2.0/24")
	n := New(Config{Seed: 1})
	defer n.Close()
	cli, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := n.ListenUDP(ap("198.51.100.7:443"))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name string
		set  func()
		want bool
	}{
		{"new", func() {}, true},
		{"default impaired", func() { n.SetProfile(lossy) }, false},
		{"default zero", func() { n.SetProfile(Profile{}) }, true},
		{"prefix impaired", func() { n.SetPrefixProfile(p1, lossy) }, false},
		{"other prefix zero", func() { n.SetPrefixProfile(p2, Profile{}) }, false},
		{"prefix zero", func() { n.SetPrefixProfile(p1, Profile{}) }, true},
	} {
		step.set()
		n.mu.Lock()
		got := n.perfect
		n.mu.Unlock()
		if got != step.want {
			t.Fatalf("%s: perfect = %v, want %v", step.name, got, step.want)
		}
		// And the datagrams agree: a lossy link loses, a perfect one delivers.
		before := n.ImpairmentStats()
		if _, err := cli.WriteTo([]byte("x"), srv.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		after := n.ImpairmentStats()
		if delivered := after.Delivered - before.Delivered; (delivered == 1) != step.want || after.Lost-before.Lost != 1-delivered {
			t.Fatalf("%s: a datagram moved Delivered by %d and Lost by %d", step.name, delivered, after.Lost-before.Lost)
		}
	}
	m := New(Config{Profile: lossy})
	defer m.Close()
	if m.perfect {
		t.Fatal("a network built with an impaired default profile is perfect")
	}
}

// TestSetPrefixProfileRacesSenders: senders keep writing while another
// goroutine turns a prefix lossy and perfect again. Every datagram is
// judged under one profile or the other, counted once, and the network
// ends perfect.
func TestSetPrefixProfileRacesSenders(t *testing.T) {
	const writers, perWriter = 4, 5000
	prefix := netip.MustParsePrefix("203.0.113.0/24")
	n := New(Config{Seed: 5})
	defer n.Close()
	pc, err := n.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	toggled := make(chan int)
	go func() {
		flips := 0
		for {
			select {
			case <-stop:
				n.SetPrefixProfile(prefix, Profile{})
				toggled <- flips
				return
			default:
			}
			n.SetPrefixProfile(prefix, Profile{Loss: 1})
			n.SetPrefixProfile(prefix, Profile{})
			flips++
		}
	}()
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			to := net.UDPAddrFromAddrPort(netip.AddrPortFrom(netip.AddrFrom4([4]byte{203, 0, 113, byte(w)}), 443))
			for range perWriter {
				if _, err := pc.WriteTo([]byte("x"), to); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	t.Logf("%d lossy-and-back flips during %d datagrams", <-toggled, writers*perWriter)

	st := n.ImpairmentStats()
	if dgrams, _ := n.UDPTraffic(); dgrams != writers*perWriter || st.Delivered+st.Lost != dgrams {
		t.Fatalf("%d datagrams sent, %d delivered + %d lost", dgrams, st.Delivered, st.Lost)
	}
	n.mu.Lock()
	perfect := n.perfect
	n.mu.Unlock()
	if !perfect {
		t.Fatal("the network is not perfect once every profile is zero again")
	}
}
