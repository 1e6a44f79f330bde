package fingerprint

import "quicscan/internal/telemetry"

// Registry metrics of the scenario engine beyond the engine-owned
// fingerprint_targets_total and fingerprint_verdicts_total.
var (
	mScenarios = telemetry.Default().CounterVec("fingerprint_scenarios_total", "scenario")
	mUnknown   = telemetry.Default().Counter("fingerprint_unknown_total")
	mExact     = telemetry.Default().Counter("fingerprint_exact_matches_total")
)

// mScenarioRuns holds the per-scenario children, resolved once: the
// scenario set is fixed at compile time.
var mScenarioRuns = func() [numScenarios]*telemetry.Counter {
	var out [numScenarios]*telemetry.Counter
	for i := range out {
		out[i] = mScenarios.With(scenarioKeys[i])
	}
	return out
}()
