package probe_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/fingerprint"
	"quicscan/internal/listscan"
	"quicscan/internal/migration"
	"quicscan/internal/probe"
	"quicscan/internal/resumption"
	"quicscan/internal/telemetry"
)

func makeTargets(n int) []probe.Target {
	out := make([]probe.Target, n)
	for i := range out {
		out[i] = probe.Target{
			Addr: netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), 443),
			SNI:  fmt.Sprintf("t%d.test", i),
		}
	}
	return out
}

// TestRun drives a mode through the list-scan pool. Its socket factory
// holds every dial open until the pool has admitted as many targets as
// it will, so the in-flight peak is observed, not raced.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		workers, targets, wantPeak int
	}{
		{"fewer workers than targets", 3, 10, 3},
		{"more workers than targets", 16, 5, 5},
		{"one worker", 1, 4, 1},
		{"default workers", 0, listscan.DefaultWorkers + 6, listscan.DefaultWorkers},
		{"no targets", 4, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			targets := makeTargets(tc.targets)
			var inFlight, peak atomic.Int32
			started := make(chan struct{}, tc.targets)
			release := make(chan struct{})
			p := &migration.Prober{Dialer: probe.Dialer{DialPacket: func() (net.PacketConn, error) {
				n := inFlight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				started <- struct{}{}
				<-release
				inFlight.Add(-1)
				return nil, errors.New("held")
			}}}
			done := make(chan []migration.Result, 1)
			go func() { done <- p.Scan(context.Background(), tc.workers, targets, nil) }()
			for i := 0; i < tc.wantPeak; i++ {
				select {
				case <-started:
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d of %d dials started", i, tc.wantPeak)
				}
			}
			select {
			case <-started:
				t.Errorf("more than %d targets in flight", tc.wantPeak)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			got := <-done
			if len(got) != len(targets) {
				t.Fatalf("%d results for %d targets", len(got), len(targets))
			}
			for i := range targets {
				if got[i].Target != targets[i] {
					t.Errorf("slot %d holds %v, want %v", i, got[i].Target, targets[i])
				}
			}
			if p := int(peak.Load()); p != tc.wantPeak {
				t.Errorf("peak in flight %d, want %d", p, tc.wantPeak)
			}
		})
	}
}

// TestRunCancelled cancels a real mode with two targets in flight
// against a socket that never answers: every slot must still hold a
// verdict, neither open target may wait out its handshake timeout, and
// no later target may be dialled.
func TestRunCancelled(t *testing.T) {
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	targets := make([]probe.Target, 16)
	for i := range targets {
		targets[i] = probe.Target{Addr: netip.MustParseAddrPort(sink.LocalAddr().String()), SNI: fmt.Sprintf("t%d.test", i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dials atomic.Int32
	p := &migration.Prober{Dialer: probe.Dialer{
		DialPacket: func() (net.PacketConn, error) {
			if dials.Add(1) == 2 {
				cancel()
			}
			return net.ListenPacket("udp", "127.0.0.1:0")
		},
		HandshakeTimeout: 5 * time.Second,
	}}
	start := time.Now()
	results := p.Scan(ctx, 2, targets, nil)
	if d := time.Since(start); d > 4*time.Second {
		t.Errorf("cancelled run took %s; the open targets waited out the handshake timeout", d)
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("%d sockets opened, want 2: targets were dialled after the cancel", n)
	}
	for i, r := range results {
		if r.Verdict != probe.VerdictUnreachable || r.Err == "" || r.Target != targets[i] {
			t.Errorf("slot %d: %+v, want an unreachable verdict for %v", i, r, targets[i])
		}
	}
}

// TestDialFailure checks the one unreachable path: a mode whose
// socket factory fails reports its no-classification verdict with the
// cause, and the engine counts the target and the verdict.
func TestDialFailure(t *testing.T) {
	boom := errors.New("no sockets left")
	d := probe.Dialer{DialPacket: func() (net.PacketConn, error) { return nil, boom }}
	ctx := context.Background()
	target := makeTargets(1)[0]
	for _, tc := range []struct {
		mode    string
		run     func() (verdict, errText string)
		verdict string
		errText string
	}{
		{"migration", func() (string, string) {
			r := (&migration.Prober{Dialer: d}).Probe(ctx, target)
			return r.Verdict, r.Err
		}, "unreachable", boom.Error()},
		{"resumption", func() (string, string) {
			r := (&resumption.Prober{Dialer: d}).Probe(ctx, target)
			return r.Verdict, r.Err
		}, "unreachable", boom.Error()},
		// The fingerprint matrix has no error column: all-silent cells
		// match no signature.
		{"fingerprint", func() (string, string) {
			r := (&fingerprint.Prober{Dialer: d}).Fingerprint(ctx, target)
			return r.Verdict.Name, ""
		}, "unknown", ""},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			targets := tc.mode + "_targets_total"
			verdicts := tc.mode + `_verdicts_total{verdict="` + tc.verdict + `"}`
			before := telemetry.Default().Snapshot().Counters
			verdict, errText := tc.run()
			after := telemetry.Default().Snapshot().Counters
			if verdict != tc.verdict || errText != tc.errText {
				t.Errorf("verdict %q err %q, want %q %q", verdict, errText, tc.verdict, tc.errText)
			}
			if after[targets] != before[targets]+1 {
				t.Errorf("%s went %d -> %d, want +1", targets, before[targets], after[targets])
			}
			if after[verdicts] != before[verdicts]+1 {
				t.Errorf("%s went %d -> %d, want +1", verdicts, before[verdicts], after[verdicts])
			}
		})
	}
}

func TestSettle(t *testing.T) {
	m := probe.NewMode("probe_test_mode", time.Millisecond, 1)
	cause := errors.New("cause")
	before := telemetry.Default().Snapshot().Counters
	for _, tc := range []struct {
		verdict     string
		err         error
		wantVerdict string
		wantErr     string
	}{
		{"fine", nil, "fine", ""},
		{"", cause, probe.VerdictUnreachable, "cause"},
		{"classified-by-failure", cause, "classified-by-failure", "cause"},
	} {
		v, e := m.Settle(tc.verdict, tc.err)
		if v != tc.wantVerdict || e != tc.wantErr {
			t.Errorf("Settle(%q, %v) = %q, %q; want %q, %q", tc.verdict, tc.err, v, e, tc.wantVerdict, tc.wantErr)
		}
	}
	after := telemetry.Default().Snapshot().Counters
	for series, want := range map[string]uint64{
		"probe_test_mode_targets_total":                         3,
		`probe_test_mode_verdicts_total{verdict="fine"}`:        1,
		`probe_test_mode_verdicts_total{verdict="unreachable"}`: 1,
	} {
		if got := after[series] - before[series]; got != want {
			t.Errorf("%s grew by %d over three targets, want %d", series, got, want)
		}
	}
}
