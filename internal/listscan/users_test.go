package listscan_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/dnsclient"
	"quicscan/internal/dnswire"
	"quicscan/internal/migration"
	"quicscan/internal/probe"
	"quicscan/internal/tlsscan"
)

// TestCancelled holds every list scan in the tree to Run's one
// cancellation rule. Each scanner runs n targets on one worker through
// an injected dialer that counts its calls, refuses every one of them
// and cancels the scan during the k-th: every slot must still name its
// target, the slots after the k-th must carry the context error, and
// the dialer must not have been called for them.
func TestCancelled(t *testing.T) {
	const n, k = 40, 5
	refused := errors.New("dial refused")
	addr := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}) }
	type record struct{ target, err string }

	for _, tc := range []struct {
		name string
		// scan runs targets 0..n-1 under ctx, calling dial for every
		// socket it would open, and returns what each slot holds.
		scan func(ctx context.Context, dial func() error) []record
		// target is what slot i's record must name.
		target func(i int) string
	}{
		{"core.Scanner.Scan", func(ctx context.Context, dial func() error) []record {
			targets := make([]core.Target, n)
			for i := range targets {
				targets[i] = core.Target{Addr: addr(i), Port: 443}
			}
			s := &core.Scanner{Workers: 1, Timeout: 5 * time.Second,
				DialPacket: func() (net.PacketConn, error) { return nil, dial() }}
			defer s.Close()
			var out []record
			for _, r := range s.Scan(ctx, targets) {
				out = append(out, record{r.Target.Addr.String(), r.Error})
			}
			return out
		}, func(i int) string { return addr(i).String() }},
		{"tlsscan.Scanner.Scan", func(ctx context.Context, dial func() error) []record {
			targets := make([]tlsscan.Target, n)
			for i := range targets {
				targets[i] = tlsscan.Target{Addr: addr(i), Port: 443}
			}
			s := &tlsscan.Scanner{Workers: 1, Timeout: 5 * time.Second,
				Dial: func(context.Context, netip.AddrPort) (net.Conn, error) { return nil, dial() }}
			var out []record
			for _, r := range s.Scan(ctx, targets) {
				out = append(out, record{r.Target.Addr.String(), r.Error})
			}
			return out
		}, func(i int) string { return addr(i).String() }},
		{"dnsclient.Client.ResolveBatch", func(ctx context.Context, dial func() error) []record {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("t%d.test", i)
			}
			c := &dnsclient.Client{Server: &net.UDPAddr{IP: net.IPv4(192, 0, 2, 53), Port: 53}, Timeout: 5 * time.Second, Retries: -1,
				DialPacket: func() (net.PacketConn, error) { return nil, dial() }}
			var out []record
			for _, r := range c.ResolveBatch(ctx, names, dnswire.TypeHTTPS, 1) {
				out = append(out, record{r.Name, fmt.Sprint(r.Err)})
			}
			return out
		}, func(i int) string { return fmt.Sprintf("t%d.test", i) }},
		{"migration.Prober.Scan", func(ctx context.Context, dial func() error) []record {
			targets := make([]probe.Target, n)
			for i := range targets {
				targets[i] = probe.Target{Addr: netip.AddrPortFrom(addr(i), 443)}
			}
			p := &migration.Prober{Dialer: probe.Dialer{HandshakeTimeout: 5 * time.Second,
				DialPacket: func() (net.PacketConn, error) { return nil, dial() }}}
			var out []record
			for _, r := range p.Scan(ctx, 1, targets, nil) {
				out = append(out, record{r.Target.Addr.Addr().String(), r.Err})
			}
			return out
		}, func(i int) string { return addr(i).String() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dials := 0 // one worker: calls are serial
			start := time.Now()
			got := tc.scan(ctx, func() error {
				if dials++; dials == k {
					cancel()
				}
				return refused
			})
			if d := time.Since(start); d > 4*time.Second {
				t.Errorf("cancelled scan took %s, longer than a handshake timeout", d)
			}
			if dials != k {
				t.Errorf("dialer called %d times, want %d: targets were dialled after the cancel", dials, k)
			}
			if len(got) != n {
				t.Fatalf("%d records for %d targets", len(got), n)
			}
			for i, r := range got {
				if r.target != tc.target(i) {
					t.Errorf("slot %d names %q, want %q", i, r.target, tc.target(i))
				}
				switch {
				case i < k-1 && !strings.Contains(r.err, refused.Error()):
					t.Errorf("slot %d: error %q, want the dial error", i, r.err)
				case i >= k && !strings.Contains(r.err, context.Canceled.Error()):
					t.Errorf("slot %d: error %q, want the context error", i, r.err)
				}
			}
		})
	}
}
