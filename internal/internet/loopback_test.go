package internet

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"net/netip"
	"reflect"
	"slices"
	"strconv"
	"syscall"
	"testing"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/tlsscan"
)

// TestLoopbackServesTheModelledWorld: the deployments ServeLoopback
// serves on kernel sockets answer as the universe does on simnet. A
// stateful scan of each, with and without SNI, over kernel UDP ends as
// Expect says it must once its port is mapped back to its deployment,
// and a TLS-over-TCP scan of each reads the same TLS block, Server
// header and Alt-Svc ALPN set over loopback as over simnet; only the
// Alt-Svc port differs, the one served.
func TestLoopbackServesTheModelledWorld(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{Web: true})
	served, base := serveLoopback(t, u, 8)
	if len(served) != 8 {
		t.Fatalf("served %d deployments, want 8", len(served))
	}
	loopback := netip.AddrFrom4([4]byte{127, 0, 0, 1})
	ctx := context.Background()
	sniOf := func(d *Deployment) string {
		if len(d.Domains) == 0 {
			return ""
		}
		return d.Domains[0]
	}

	var targets []core.Target
	for i, d := range served {
		for _, sni := range []string{"", sniOf(d)} {
			targets = append(targets, core.Target{Addr: loopback, Port: uint16(base + i), SNI: sni})
		}
	}
	sc := &core.Scanner{RootCAs: u.RootCAs(), Timeout: 5 * time.Second, Workers: 4}
	defer sc.Close()
	for _, r := range sc.Scan(ctx, targets) {
		port := r.Target.Port
		r.Target.Addr = served[int(port)-base].Addr
		if err := u.Expect(r); err != nil {
			t.Errorf("port %d, SNI %q: %v", port, r.Target.SNI, err)
		}
	}

	var overLoopback, overSimnet []tlsscan.Target
	for i, d := range served {
		for _, sni := range []string{"", sniOf(d)} {
			overLoopback = append(overLoopback, tlsscan.Target{Addr: loopback, Port: uint16(base + i), SNI: sni})
			overSimnet = append(overSimnet, tlsscan.Target{Addr: d.Addr, SNI: sni})
		}
	}
	kernel := &tlsscan.Scanner{RootCAs: u.RootCAs(), Timeout: 5 * time.Second, Workers: 4}
	sim := &tlsscan.Scanner{
		Dial: func(_ context.Context, addr netip.AddrPort) (net.Conn, error) {
			return u.Net.DialStream(addr)
		},
		RootCAs: u.RootCAs(),
		Timeout: 5 * time.Second,
		Workers: 4,
	}
	lr, sr := kernel.Scan(ctx, overLoopback), sim.Scan(ctx, overSimnet)
	selfSigned := 0
	for i := range lr {
		l, s := lr[i], sr[i]
		if !l.OK || !s.OK {
			t.Errorf("%v: loopback ok=%v %s, simnet ok=%v %s", l.Target, l.OK, l.Error, s.OK, s.Error)
			continue
		}
		if !reflect.DeepEqual(l.TLS, s.TLS) {
			t.Errorf("%v: TLS over loopback %+v, over simnet %+v", l.Target, *l.TLS, *s.TLS)
		}
		if l.HTTP.Server != s.HTTP.Server || !slices.Equal(l.QUICALPNs, s.QUICALPNs) {
			t.Errorf("%v: Server %q and Alt-Svc ALPNs %v over loopback, %q and %v over simnet",
				l.Target, l.HTTP.Server, l.QUICALPNs, s.HTTP.Server, s.QUICALPNs)
		}
		for _, a := range l.AltSvc {
			if a.Port != int(l.Target.Port) {
				t.Errorf("%v: loopback Alt-Svc names port %d", l.Target, a.Port)
			}
		}
		for _, a := range s.AltSvc {
			if a.Port != 443 {
				t.Errorf("%v: simnet Alt-Svc names port %d", s.Target, a.Port)
			}
		}
		if l.TLS.SelfSigned {
			selfSigned++
		}
	}
	if selfSigned == 0 {
		t.Error("no served deployment gave the self-signed answer: the sample misses that quirk")
	}
}

// serveLoopback serves the first n stateful deployments of u on a base
// port below the kernel's ephemeral range (32768 on Linux by default),
// drawing another base while a port is taken.
func serveLoopback(t *testing.T, u *Universe, n int) ([]*Deployment, int) {
	t.Helper()
	for try := 0; ; try++ {
		base := 20000 + rand.IntN(12000)
		served, err := u.ServeLoopback(n, base, nil)
		if err == nil {
			return served, base
		}
		if !errors.Is(err, syscall.EADDRINUSE) || try == 20 {
			t.Fatal(err)
		}
	}
}

// TestServeLoopbackFailureClosesWhatItOpened: a ServeLoopback that
// finds its second deployment's TCP port taken fails with the kernel's
// EADDRINUSE, closes the UDP and TCP sockets it opened before it, and
// leaves the universe able to serve.
func TestServeLoopbackFailureClosesWhatItOpened(t *testing.T) {
	u := startedUniverse(t, tinySpec(), StartOptions{})
	var base int
	var taken net.Listener
	for try := 0; taken == nil; try++ {
		if try == 20 {
			t.Fatal("no free loopback ports found")
		}
		base = 20000 + rand.IntN(12000)
		if bound(base) == nil {
			taken, _ = net.Listen("tcp", loopbackPort(base+1))
		}
	}
	defer taken.Close()
	if _, err := u.ServeLoopback(3, base, nil); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("ServeLoopback over a taken port: %v, want EADDRINUSE", err)
	}
	if err := bound(base); err != nil {
		t.Errorf("the first deployment's port is still bound: %v", err)
	}
	if len(u.servers.quicLs) != 0 || len(u.servers.webs) != 0 {
		t.Errorf("%d QUIC listeners and %d web servers kept after a failed ServeLoopback", len(u.servers.quicLs), len(u.servers.webs))
	}
	if served, _ := serveLoopback(t, u, 2); len(served) != 2 || len(u.servers.quicLs) != 2 || len(u.servers.webs) != 1 {
		t.Errorf("the next ServeLoopback served %d with %d QUIC listeners and %d web servers, want 2, 2 and 1",
			len(served), len(u.servers.quicLs), len(u.servers.webs))
	}
}

// bound returns the error binding loopback UDP and TCP port p gives,
// releasing both: nil when the port is free.
func bound(p int) error {
	pc, err := net.ListenPacket("udp", loopbackPort(p))
	if err != nil {
		return err
	}
	pc.Close()
	l, err := net.Listen("tcp", loopbackPort(p))
	if err != nil {
		return err
	}
	return l.Close()
}

func loopbackPort(p int) string { return net.JoinHostPort("127.0.0.1", strconv.Itoa(p)) }
