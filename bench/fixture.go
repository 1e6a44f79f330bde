package main

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/internet"
)

// fixtureScale is the one universe size every workload and every layer
// measurement shares (ROADMAP item 2a); the tier-1 smoke test is the
// only caller that passes another.
const fixtureScale = 2048

// darkPrefix widens the sweep with addresses nobody answers on, so the
// hit rate of sweep-vn is near the paper's 0.07 % instead of the 3.7 %
// of the allocated prefixes alone. The universe allocates upward from
// 11.0.0.0 and never reaches it.
var darkPrefix = netip.MustParsePrefix("100.64.0.0/10")

// fixture is one started universe.
type fixture struct {
	u       *internet.Universe
	buildMs float64
	startMs float64
}

// newFixture builds and starts the seeded universe. web also starts
// the TLS-over-TCP side, which only the ledger pass needs.
func newFixture(seed uint64, scale int, web bool) (*fixture, error) {
	t0 := time.Now()
	u := internet.Build(internet.Spec{Seed: seed, Scale: scale})
	t1 := time.Now()
	if err := u.Start(internet.StartOptions{Stateful: true, Web: web}); err != nil {
		return nil, fmt.Errorf("starting universe: %w", err)
	}
	return &fixture{u: u, buildMs: ms(t1.Sub(t0)), startMs: ms(time.Since(t1))}, nil
}

func (f *fixture) dialUDP() (net.PacketConn, error) { return f.u.Net.DialUDP() }

// vnResponders is the ground truth of sweep-vn: the IPv4 addresses
// that answer a forced version negotiation.
func (f *fixture) vnResponders() map[netip.Addr]bool {
	out := make(map[netip.Addr]bool)
	for _, d := range f.u.Deployments {
		if d.ZMapVisible && d.Addr.Is4() {
			out[d.Addr] = true
		}
	}
	return out
}

// responsiveNoRetry is the scan-cold / scan-rescan target list: every
// active deployment with a domain that neither demands a Retry token
// nor downgrades transport parameters on resumption (README, exclusion
// i), SNI = first domain.
func (f *fixture) responsiveNoRetry() []core.Target {
	var out []core.Target
	for _, d := range f.u.Deployments {
		q := d.Profile.Quirks
		if d.Behavior != internet.BehaviorActive || len(d.Domains) == 0 ||
			d.Profile.UseRetry || q.Retry != internet.RetryOff ||
			q.Resumption == internet.ResumptionDowngrade {
			continue
		}
		out = append(out, core.Target{Addr: d.Addr, SNI: d.Domains[0]})
	}
	return out
}

// retryTargets are the active deployments that validate addresses with
// Retry; only the ledger's quic.dial_retry_ms_p50 visits them.
func (f *fixture) retryTargets() []core.Target {
	var out []core.Target
	for _, d := range f.u.Deployments {
		if d.Behavior == internet.BehaviorActive && len(d.Domains) > 0 &&
			(d.Profile.UseRetry || d.Profile.Quirks.Retry != internet.RetryOff) {
			out = append(out, core.Target{Addr: d.Addr, SNI: d.Domains[0]})
		}
	}
	return out
}

// checkScan scores one stateful result against the deployment it was
// aimed at: success, the deployment's Server header and its transport
// parameter configuration.
func (f *fixture) checkScan(r *core.Result) bool {
	d := f.u.ByAddr[r.Target.Addr]
	if d == nil || r.Outcome != core.OutcomeSuccess {
		return false
	}
	if r.HTTP == nil || !r.HTTP.RequestOK || r.HTTP.Server != d.ServerHeader {
		return false
	}
	return r.TPFingerprint == d.TPConfig.Fingerprint()
}

// expectedOutcome is the ground truth of one campaign-mixed stateful
// target: what a first-visit handshake to addr must end in, given the
// deployment's behaviour class and whether SNI was sent. An address
// with no deployment is silent.
func (f *fixture) expectedOutcome(t core.Target) core.Outcome {
	d := f.u.ByAddr[t.Addr]
	if d == nil {
		return core.OutcomeTimeout
	}
	switch d.Behavior {
	case internet.BehaviorActive:
		return core.OutcomeSuccess
	case internet.BehaviorRequireSNI:
		if t.SNI != "" {
			return core.OutcomeSuccess
		}
		return core.OutcomeCryptoError
	case internet.BehaviorGhost0x128:
		return core.OutcomeCryptoError
	case internet.BehaviorGhostTimeout:
		return core.OutcomeTimeout
	case internet.BehaviorMismatch:
		return core.OutcomeVersionMismatch
	}
	return core.OutcomeOther
}
