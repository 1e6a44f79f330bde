package campaign

import (
	"context"
	"net"
	"net/netip"

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

// Sweep is Run inside zs.Collect: one collector of zs per socket of
// conns for as long as the engine probes, then for zs.Cooldown more.
// hit is called for the first valid response of each address, one call
// at a time. The engine's Probe is ProbeWith(zs), on a socket of conns'
// port. When Run fails or ctx is cancelled, before or during the
// cooldown, Sweep returns the error at once; every collector has exited
// when it returns.
func (e *Engine) Sweep(ctx context.Context, zs *zmapquic.Scanner, conns []net.PacketConn, hit func(zmapquic.Result)) error {
	_, _, err := zs.Collect(ctx, conns, e.Run, hit)
	return err
}
