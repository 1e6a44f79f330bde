package analysis_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"quicscan/internal/analysis"
	"quicscan/internal/core"
	"quicscan/internal/internet"
)

// Rank the HTTP Server values of every active deployment by AS spread,
// the paper's Table 6. A server product with its own defaults
// (LiteSpeed, Caddy) shows few transport parameter configurations
// however many ASes it is in; nginx, configured by each operator, shows
// more.
func ExampleTopServerValues() {
	u := internet.Build(internet.Spec{Seed: 21, Scale: 8192, ASScale: 32, DomainScale: 65536})
	if err := u.Start(internet.StartOptions{Stateful: true}); err != nil {
		log.Fatal(err)
	}
	defer u.Stop()
	var targets []core.Target
	for _, d := range u.Deployments {
		if d.Behavior != internet.BehaviorActive {
			continue
		}
		t := core.Target{Addr: d.Addr}
		if len(d.Domains) > 0 {
			t.SNI = d.Domains[0]
		}
		targets = append(targets, t)
	}
	s := &core.Scanner{
		DialPacket: func() (net.PacketConn, error) { return u.Net.DialUDP() },
		RootCAs:    u.RootCAs(),
		Timeout:    2 * time.Second,
		Workers:    64,
	}
	defer s.Close()
	results := s.Scan(context.Background(), targets)

	fmt.Printf("%-16s %5s %8s %10s\n", "Server", "#ASes", "#Targets", "#TPConfigs")
	for _, v := range analysis.TopServerValues(results, u.ASDB, 8) {
		fmt.Printf("%-16s %5d %8d %10d\n", v.Server, v.ASes, v.Targets, v.TPConfigs)
	}
	fmt.Printf("%d transport parameter configurations over %d targets\n",
		len(analysis.TPConfigDistribution(results, u.ASDB)), len(results))
	// Output:
	// Server           #ASes #Targets #TPConfigs
	// LiteSpeed            8       14          1
	// nginx                8       13          5
	// Caddy                5        6          1
	// nginx/1.20.0         5        5          2
	// nginx/1.17.8         4        4          3
	// nginx/1.19.6         4        4          3
	// proxygen-bolt        4        5          3
	// yunjiasu-nginx       4        4          2
	// 24 transport parameter configurations over 67 targets
}
