package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
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
	zs := &zmapquic.Scanner{Conn: pc, Cooldown: 200 * time.Millisecond}
	err = runCampaign(context.Background(), zs, []net.PacketConn{pc}, u.V4Prefixes()[:1], campaignFlags{
		seed: 1, shards: 1, output: "/dev/full",
	})
	if err == nil || !strings.Contains(err.Error(), "writing records") || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("runCampaign into /dev/full = %v; want a writing-records error", err)
	}
}

// TestModeFlagsTheModeIgnoresAreRefused: -retries in a -prefixes sweep
// and more than one -recv-sockets in a -hitlist scan would do nothing,
// so zmapquic exits 1 with an error naming the flag and the mode, before
// it opens a socket. In the mode that uses them the same flags run a
// scan of the loopback address. Each command line runs in a child
// process.
func TestModeFlagsTheModeIgnoresAreRefused(t *testing.T) {
	if args := os.Getenv("ZMAPQUIC_TEST_ARGS"); args != "" {
		os.Args = append([]string{"zmapquic"}, strings.Fields(args)...)
		main()
		return
	}
	list := filepath.Join(t.TempDir(), "hitlist.txt")
	if err := os.WriteFile(list, []byte("127.0.0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	quick := " -cooldown 10ms -output none"
	for _, c := range []struct{ args, refusal string }{
		{"-prefixes 127.0.0.1/32 -retries 2" + quick, "-retries applies to -hitlist scans, not to -prefixes sweeps"},
		{"-hitlist " + list + " -recv-sockets 4" + quick, "-recv-sockets applies to -prefixes sweeps, not to -hitlist scans"},
		{"-prefixes 127.0.0.1/32 -recv-sockets 4" + quick, ""},
		{"-hitlist " + list + " -retries 2" + quick, ""},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestModeFlagsTheModeIgnoresAreRefused$")
		cmd.Env = append(os.Environ(), "ZMAPQUIC_TEST_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		refused := errors.As(err, &exit) && exit.ExitCode() == 1 && string(out) == "zmapquic: "+c.refusal+"\n"
		if c.refusal != "" && !refused {
			t.Errorf("zmapquic %s: %v, output %q; want exit 1 and %q", c.args, err, out, c.refusal)
		}
		if c.refusal == "" && err != nil {
			t.Errorf("zmapquic %s: %v, output %q", c.args, err, out)
		}
	}
}
