package internet

import (
	"fmt"

	"quicscan/internal/core"
)

// Expect scores one stateful scan result against the universe's ground
// truth: it returns nil when r is what a first visit to r.Target must
// end in, on a universe started with Stateful. The outcome follows from
// the deployment's behaviour and whether SNI was sent; an address with
// no deployment is silent. A success must also carry the deployment's
// transport parameters and, when the HTTP/3 exchange ran, its Server
// header.
func (u *Universe) Expect(r core.Result) error {
	d := u.ByAddr[r.Target.Addr]
	want := core.OutcomeTimeout // no deployment, or a ghost that drops Initials
	switch {
	case d == nil:
	case d.Behavior == BehaviorActive, d.Behavior == BehaviorRequireSNI && r.Target.SNI != "":
		want = core.OutcomeSuccess
	case d.Behavior == BehaviorRequireSNI, d.Behavior == BehaviorGhost0x128:
		want = core.OutcomeCryptoError
	case d.Behavior == BehaviorMismatch:
		want = core.OutcomeVersionMismatch
	}
	if r.Outcome != want {
		return fmt.Errorf("%v: %s (%s), want %s", r.Target.Addr, r.Outcome, r.Error, want)
	}
	if want != core.OutcomeSuccess {
		return nil
	}
	if fp := d.TPConfig.Fingerprint(); r.TPFingerprint != fp {
		return fmt.Errorf("%v: transport parameters %s, want %s", r.Target.Addr, r.TPFingerprint, fp)
	}
	if r.HTTP != nil && (!r.HTTP.RequestOK || r.HTTP.Server != d.ServerHeader) {
		return fmt.Errorf("%v: HTTP %+v, want Server %q", r.Target.Addr, *r.HTTP, d.ServerHeader)
	}
	return nil
}
