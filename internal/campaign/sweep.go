package campaign

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"time"

	"quicscan/internal/zmapquic"
)

// ProbeWith is the Config.Probe of a stateless sweep: one forced-VN probe
// per address through zs.SendProbe. Hand the same zs to Sweep, whose
// collectors validate each answer against the connection IDs zs derived
// for the probe; one from another Scanner fails validation.
func ProbeWith(zs *zmapquic.Scanner) ProbeFunc {
	return func(_ context.Context, addr netip.Addr) error {
		_, err := zs.SendProbe(addr)
		return err
	}
}

// Sweep is Run with the receive side of a stateless sweep beside it:
// one collector of zs per socket of conns for as long as the engine
// probes, then for cooldown more, so that answers still in flight when
// the last probe left are heard. hit is called for the first valid
// response of each address, one call at a time. The engine's Probe is
// ProbeWith(zs), on a socket of conns' port.
//
// The cooldown belongs to a sweep that finished: when Run fails or ctx
// is cancelled, before or during the cooldown, Sweep stops the
// collectors and returns the error at once. Every collector has exited
// when it returns.
func (e *Engine) Sweep(ctx context.Context, zs *zmapquic.Scanner, conns []net.PacketConn, cooldown time.Duration, hit func(zmapquic.Result)) error {
	collectCtx, stop := context.WithCancel(ctx)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards seen and serializes hit
		seen = make(map[netip.Addr]bool)
	)
	for _, conn := range conns {
		wg.Add(1)
		go func(conn net.PacketConn) {
			defer wg.Done()
			zs.CollectResponsesOn(collectCtx, conn, func(r zmapquic.Result) {
				mu.Lock()
				defer mu.Unlock()
				if !seen[r.Addr] {
					seen[r.Addr] = true
					hit(r)
				}
			})
		}(conn)
	}
	err := e.Run(ctx)
	if err == nil {
		select {
		case <-time.After(cooldown):
		case <-ctx.Done():
			err = ctx.Err() // late answers went unheard: not a clean sweep
		}
	}
	stop()
	wg.Wait()
	return err
}
