package main

import (
	"context"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"quicscan/internal/internet"
	"quicscan/internal/zmapquic"
)

// TestSweepWithUnwritableOutputFails: a prefix sweep whose hits cannot be
// written is an error, not a campaign that completed.
func TestSweepWithUnwritableOutputFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here:", err)
	}
	u := internet.Build(internet.Spec{Seed: 3, Scale: 16384})
	if err := u.Start(internet.StartOptions{}); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	pc, err := u.Net.DialUDP()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	zs := &zmapquic.Scanner{Conn: pc}
	err = runCampaign(context.Background(), zs, []net.PacketConn{pc}, u.V4Prefixes()[:1], campaignFlags{
		seed: 1, shards: 1, output: "/dev/full", cooldown: 200 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "writing records") || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("runCampaign into /dev/full = %v; want a writing-records error", err)
	}
}
