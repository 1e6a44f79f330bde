package chaos

import (
	"context"
	"crypto/tls"
	"net"
	"net/netip"
	"time"

	"quicscan/internal/h3"
	"quicscan/internal/listscan"
	"quicscan/internal/quic"
)

// rebinder is the simnet socket capability the rebind scenarios need.
type rebinder interface {
	Rebind() (netip.AddrPort, error)
}

// RebindConfig tunes one rebind chaos run.
type RebindConfig struct {
	// Flows is the number of client flows to drive.
	Flows int
	// Attempts is the whole-flow retry budget: a flow that dies at any
	// stage restarts from a fresh socket, mirroring how the stateful
	// scanner re-probes silent targets (0 means one attempt).
	Attempts int
	// Timeout bounds each stage (handshake, each transfer, forced
	// migration) of one attempt.
	Timeout time.Duration
	// PTO and MaxPTOs tune client retransmission.
	PTO     time.Duration
	MaxPTOs int
	// Workers bounds flow parallelism (default 16).
	Workers int
	// Force replaces the passive-survival flow with an explicit
	// MigrateForce after the rebind: the client insists on the new
	// path even when the server refuses migration. Against a
	// quic.MigrationDisabled world every flow must die.
	Force bool
}

// RebindReport is the outcome of one rebind chaos run.
type RebindReport struct {
	// Flows attempted and flows that completed end to end (handshake,
	// transfer, rebind survival, second transfer).
	Flows, Completions int
	// HandshakeRebinds counts flows whose socket moved while the
	// handshake was still in flight (the remainder moved between the
	// two transfers).
	HandshakeRebinds int
	// ForcedRejected counts forced-migration attempts that failed path
	// validation (only meaningful with Force).
	ForcedRejected int
	// Retried counts flows that needed more than one attempt.
	Retried int
}

// RebindRun drives Flows client connections through a NAT-rebind in
// the middle of their lifetime. Even-numbered flows rebind while the
// handshake is still in flight (RFC 9000 Section 8.1: the handshake
// itself validates the new address); odd-numbered flows rebind between
// two HTTP/3 transfers, which only survives if the server runs path
// validation toward the moved client and promotes the new path. A
// completion is a flow whose second transfer succeeded.
func (w *World) RebindRun(ctx context.Context, rc RebindConfig) RebindReport {
	workers := rc.Workers
	if workers <= 0 {
		workers = 16
	}
	type flow struct{ completed, midHandshake, rejected, retried bool }
	flows := listscan.Run(ctx, workers, rc.Flows, func(_, i int) flow {
		f := flow{midHandshake: i%2 == 0 && !rc.Force}
		attempt := 0
		for ; attempt < max(rc.Attempts, 1); attempt++ {
			if f.completed, f.rejected = w.rebindFlow(ctx, rc, i, f.midHandshake); f.completed {
				break
			}
		}
		f.retried = attempt > 0
		return f
	}, func(int, error) flow { return flow{} }, nil)

	rep := RebindReport{Flows: rc.Flows}
	for _, f := range flows {
		if f.completed {
			rep.Completions++
		}
		if f.midHandshake {
			rep.HandshakeRebinds++
		}
		if f.rejected {
			rep.ForcedRejected++
		}
		if f.retried {
			rep.Retried++
		}
	}
	return rep
}

// rebindFlow runs one attempt of one flow. The second return reports
// whether a forced migration was explicitly refused by path
// validation.
func (w *World) rebindFlow(ctx context.Context, rc RebindConfig, i int, midHandshake bool) (completed, forcedRejected bool) {
	target := w.Targets[i%len(w.Targets)]
	pc, err := w.Net.DialUDP()
	if err != nil {
		return false, false
	}
	var rb rebinder = pc
	cfg := &quic.Config{
		TLS: &tls.Config{
			RootCAs:    w.Pool,
			ServerName: target.SNI,
			NextProtos: []string{"h3", "h3-34", "h3-32", "h3-29"},
		},
		HandshakeTimeout: rc.Timeout,
		PTO:              rc.PTO,
		MaxPTOs:          rc.MaxPTOs,
		MaxPTOBackoff:    4 * rc.PTO,
		TransportParams:  quic.DefaultClientParams(),
	}
	raddr := net.UDPAddrFromAddrPort(netip.AddrPortFrom(target.Addr, 443))

	dctx, cancel := context.WithTimeout(ctx, rc.Timeout+time.Second)
	var conn *quic.Conn
	if midHandshake {
		// Move the socket while the handshake is in flight. The sleep
		// lands the rebind between flights often enough; when the
		// handshake wins the race the flow degrades to an
		// immediately-post-handshake rebind, which is still a valid
		// survival case.
		done := make(chan struct{})
		go func() {
			conn, err = quic.Dial(dctx, pc, raddr, cfg)
			close(done)
		}()
		time.Sleep(rc.PTO / 2)
		rb.Rebind()
		<-done
	} else {
		conn, err = quic.Dial(dctx, pc, raddr, cfg)
	}
	cancel()
	if err != nil {
		pc.Close()
		return false, false
	}
	defer conn.Close()

	hc, err := h3.NewClientConn(conn)
	if err != nil {
		return false, false
	}
	rtt := func() bool {
		rctx, cancel := context.WithTimeout(ctx, rc.Timeout)
		defer cancel()
		_, err := hc.RoundTrip(rctx, "HEAD", target.SNI, "/", nil)
		return err == nil
	}
	if !rtt() {
		return false, false
	}

	if !midHandshake {
		if _, err := rb.Rebind(); err != nil {
			return false, false
		}
		if rc.Force {
			mctx, cancel := context.WithTimeout(ctx, rc.Timeout)
			err := conn.MigrateForce(mctx)
			cancel()
			if err != nil {
				forcedRejected = true
			}
		}
	}
	return rtt(), forcedRejected
}
