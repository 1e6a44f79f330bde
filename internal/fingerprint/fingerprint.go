// Package fingerprint identifies QUIC server implementations by
// behaviour rather than by passively observed transport parameters.
// A scenario engine runs a battery of active edge-case exchanges
// against a target — reserved-version negotiation, initial-padding
// enforcement, Retry token replay, stateless reset elicitation,
// post-handshake key update, GREASE transport parameters, and idle
// timeout teardown — and records one cell of a response matrix per
// scenario. The matrix is then matched against a signature database of
// known implementations ("Observing the Evolution of QUIC
// Implementations" applies the same idea to the real Internet; the
// source paper's Table 6 stops at transport parameters).
//
// Every cell value is the externally observable outcome class, so a
// matrix is reproducible across runs and network paths: "silent",
// "vn"/"vn-grease", "close-0x<code>", and so on. Classification is
// nearest-signature by cell distance with a bounded acceptance radius;
// anything farther is "unknown" rather than a guess.
package fingerprint

import (
	"fmt"
	"strings"
)

// scenario identifies one active edge-case exchange. The order is the
// canonical matrix order.
type scenario int

const (
	// scenarioVN offers a reserved 0x?a?a?a?a version (distinct from
	// the ZMap module's) in a fully padded Initial and inspects the
	// Version Negotiation answer — in particular whether the server
	// greases its version list.
	scenarioVN scenario = iota
	// scenarioPadding sends the same probe without padding; answering
	// it violates RFC 9000 Section 14.1.
	scenarioPadding
	// scenarioRetry dials twice: once to learn whether the target
	// performs Retry-based address validation, then with a forged
	// token to observe the validator's strictness.
	scenarioRetry
	// scenarioReset sends an orphan 1-RTT-shaped datagram and watches
	// for a stateless reset.
	scenarioReset
	// scenarioKeyUpdate completes a handshake, initiates an RFC 9001
	// Section 6 key update, and forces a round trip.
	scenarioKeyUpdate
	// scenarioGreaseTP completes a handshake offering an unknown
	// (GREASE) transport parameter, which RFC 9000 Section 7.4.2 says
	// must be ignored.
	scenarioGreaseTP
	// scenarioIdle advertises a tiny max_idle_timeout, goes quiet, and
	// observes whether the teardown is silent or announced.
	scenarioIdle

	// numScenarios is the matrix width.
	numScenarios
)

// scenarioKeys are the stable wire/report names, in matrix order.
var scenarioKeys = [numScenarios]string{
	"vn", "pad", "retry", "reset", "ku", "tp", "idle",
}

func (s scenario) String() string {
	if s >= 0 && s < numScenarios {
		return scenarioKeys[s]
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// Cell outcome classes. Scenario-specific values (Retry strictness)
// live beside the shared ones.
const (
	// cellSilent: no observable response (timeout).
	cellSilent = "silent"
	// cellVN: a plain Version Negotiation answer.
	cellVN = "vn"
	// cellVNGrease: a VN answer whose version list contains a reserved
	// grease version.
	cellVNGrease = "vn-grease"
	// cellOK: the exchange completed normally.
	cellOK = "ok"
	// cellReset: a stateless reset (or reset-shaped answer) arrived.
	cellReset = "reset"
	// cellRetryNone: the target performs no Retry address validation.
	cellRetryNone = "none"
	// cellRetryDrop: Retry performed; a forged token is silently
	// dropped.
	cellRetryDrop = "drop"
	// cellRetryClose: Retry performed; a forged token draws an
	// immediate INVALID_TOKEN close.
	cellRetryClose = "close"
	// cellRetryLax: Retry performed; a forged token is accepted.
	cellRetryLax = "lax"
)

// cellClose renders a CONNECTION_CLOSE outcome with its transport
// error code, e.g. "close-0x8".
func cellClose(code uint64) string {
	return fmt.Sprintf("close-0x%x", code)
}

// Matrix is one response row: the outcome class of every scenario, in
// scenario order. The zero value ("" cells) means "not probed".
type Matrix [numScenarios]string

// String encodes the matrix in the canonical single-line form used in
// reports, goldens, and the fuzzable decoder:
//
//	vn=vn-grease|pad=silent|retry=none|reset=reset|ku=ok|tp=ok|idle=silent
func (m Matrix) String() string {
	var b strings.Builder
	for i, v := range m {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(scenarioKeys[i])
		b.WriteByte('=')
		b.WriteString(v)
	}
	return b.String()
}

// distance counts the cells where m and o disagree. Empty cells
// ("not probed") count as disagreement unless both are empty: an
// unprobed scenario must not make two matrices look closer.
func (m Matrix) distance(o Matrix) int {
	n := 0
	for i := range m {
		if m[i] != o[i] {
			n++
		}
	}
	return n
}
