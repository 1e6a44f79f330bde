package main

import (
	"context"
	"net"
	"testing"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/netbatch"
)

// TestSeamWrapper checks the two things the counting wrapper promises:
// it does not conceal a socket's native batching from netbatch.Wrap,
// and what it counts is what the program says it sent.
func TestSeamWrapper(t *testing.T) {
	f, err := newFixture(9, smokeConfig().scale, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.u.Stop()

	raw, err := f.dialUDP()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_, rawKind := netbatch.Wrap(raw)
	_, wrappedKind := netbatch.Wrap(wrapConn(raw, &sockCounts{}))
	if rawKind != netbatch.KindNative || wrappedKind != rawKind {
		t.Errorf("netbatch.Wrap: %v for the simnet socket, %v through the wrapper", rawKind, wrappedKind)
	}

	targets := f.responsiveNoRetry()
	if len(targets) == 0 {
		t.Fatal("no target")
	}
	counts := &sockCounts{}
	sc := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) {
			pc, err := f.dialUDP()
			if err != nil {
				return nil, err
			}
			return wrapConn(pc, counts), nil
		},
		RootCAs: f.u.RootCAs(),
		Timeout: 2 * time.Second,
	}
	before := readCounters()
	for i := 0; i < 10; i++ {
		if r := sc.ScanTarget(context.Background(), targets[i%len(targets)]); !f.checkScan(&r) {
			t.Fatalf("scan %v: %s %s", r.Target.Addr, r.Outcome, r.Error)
		}
	}
	sc.Close()
	after := readCounters()
	if out := delta(before, after, "quic_datagrams_out_total"); float64(counts.writes.Load()) != out {
		t.Errorf("wrapper counted %d writes, quic_datagrams_out_total moved by %v", counts.writes.Load(), out)
	}
	if in := delta(before, after, "quic_datagrams_in_total"); float64(counts.reads.Load()) != in {
		t.Errorf("wrapper counted %d reads, quic_datagrams_in_total moved by %v", counts.reads.Load(), in)
	}
	if counts.firstWrite == nil || counts.closedSocketLifetimes.Load() == 0 {
		t.Error("wrapper did not capture the first datagram or the socket lifetimes")
	}
}
