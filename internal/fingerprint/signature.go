package fingerprint

// Signature is a known implementation's expected response matrix.
type Signature struct {
	// Name labels the implementation blueprint, matching
	// internet.Profile.Impl for the simulated ground truth.
	Name string
	// M is the expected matrix.
	M Matrix
}

// DB is an ordered signature database. Order does not affect
// classification: an observation equally distant from two signatures
// is ambiguous and abstains.
type DB []Signature

// MaxDistance is the acceptance radius of Match: an observation
// farther than this from every signature classifies as unknown.
// One unit absorbs a single corrupted cell (an Alt-Svc-only
// deployment suppresses its VN answer, turning the vn cell silent);
// two keeps ghosts — which blank out every handshake scenario — out.
const MaxDistance = 2

// VerdictUnknown is the Name reported when nothing matches within
// MaxDistance.
const VerdictUnknown = "unknown"

// Verdict is the result of a database lookup.
type Verdict struct {
	// Name is the best-matching signature's name, or VerdictUnknown.
	Name string
	// Distance is the cell distance to the best match (0 on an exact
	// hit). Meaningless when Name is VerdictUnknown.
	Distance int
	// Exact reports a zero-distance match.
	Exact bool
}

// Match classifies an observed matrix: nearest signature by cell
// distance, VerdictUnknown beyond MaxDistance. A distance tie between
// two signatures is ambiguous evidence and abstains rather than
// guessing — combined with the database invariant that signatures are
// pairwise ≥2 cells apart, this makes single-cell corruption safe by
// construction: the true row drops to distance 1, every other row
// stays at ≥1, so a wrong row can at worst tie (→ unknown), never
// win.
func (db DB) Match(m Matrix) Verdict {
	best, bestDist, ties := -1, int(NumScenarios)+1, 0
	for i := range db {
		switch d := db[i].M.Distance(m); {
		case d < bestDist:
			best, bestDist, ties = i, d, 1
		case d == bestDist:
			ties++
		}
	}
	if best < 0 || bestDist > MaxDistance || ties > 1 {
		return Verdict{Name: VerdictUnknown, Distance: bestDist}
	}
	return Verdict{Name: db[best].Name, Distance: bestDist, Exact: bestDist == 0}
}

// baseline is the fully standards-conforming row every signature
// deviates from: answers VN plainly, enforces Initial padding, does no
// Retry, sends stateless resets, completes key updates, ignores
// unknown transport parameters, and tears idle connections down
// silently.
func baseline() Matrix {
	return Matrix{
		ScenarioVN:        CellVN,
		ScenarioPadding:   CellSilent,
		ScenarioRetry:     CellRetryNone,
		ScenarioReset:     CellReset,
		ScenarioKeyUpdate: CellOK,
		ScenarioGreaseTP:  CellOK,
		ScenarioIdle:      CellSilent,
	}
}

// deviate returns the baseline with the given cells overridden.
func deviate(cells map[Scenario]string) Matrix {
	m := baseline()
	for s, v := range cells {
		m[s] = v
	}
	return m
}

// DefaultDB is the signature database for the simulated Internet's
// implementation blueprints (internet.AllProfiles). Each signature
// deviates from the baseline in a distinct *pair* of cells, so every
// two signatures differ in at least two cells: distinct pairs that
// share one member still disagree in both non-shared cells, and the
// all-baseline "individual" row is two deviations away from everyone.
// One corrupted cell therefore never turns one implementation into
// another.
func DefaultDB() DB {
	closeNoError := CellClose(0x0) // NO_ERROR
	closeTPError := CellClose(0x8) // TRANSPORT_PARAMETER_ERROR
	closeKUError := CellClose(0xe) // KEY_UPDATE_ERROR
	return DB{
		{Name: "cloudflare-quiche", M: deviate(map[Scenario]string{
			ScenarioVN: CellVNGrease, ScenarioIdle: closeNoError})},
		{Name: "google-quic", M: deviate(map[Scenario]string{
			ScenarioReset: CellSilent, ScenarioKeyUpdate: closeKUError})},
		{Name: "akamai-quic", M: deviate(map[Scenario]string{
			ScenarioVN: CellVNGrease, ScenarioKeyUpdate: closeKUError})},
		{Name: "fastly-quicly", M: deviate(map[Scenario]string{
			ScenarioRetry: CellRetryClose, ScenarioReset: CellSilent})},
		{Name: "mvfst-origin", M: deviate(map[Scenario]string{
			ScenarioRetry: CellRetryDrop, ScenarioIdle: closeNoError})},
		{Name: "hosting-lsws", M: deviate(map[Scenario]string{
			ScenarioGreaseTP: closeTPError, ScenarioIdle: closeNoError})},
		{Name: "cloud-mixed", M: deviate(map[Scenario]string{
			ScenarioKeyUpdate: CellSilent, ScenarioIdle: closeNoError})},
		{Name: "mvfst-edge", M: deviate(map[Scenario]string{
			ScenarioRetry: CellRetryClose, ScenarioGreaseTP: closeTPError})},
		{Name: "gvs", M: deviate(map[Scenario]string{
			ScenarioKeyUpdate: CellSilent, ScenarioGreaseTP: closeTPError})},
		{Name: "litespeed", M: deviate(map[Scenario]string{
			ScenarioVN: CellVNGrease, ScenarioReset: CellSilent})},
		{Name: "nginx-quic", M: deviate(map[Scenario]string{
			ScenarioReset: CellSilent, ScenarioGreaseTP: closeTPError})},
		{Name: "caddy-quicgo", M: deviate(map[Scenario]string{
			ScenarioVN: CellVNGrease, ScenarioRetry: CellRetryLax})},
		{Name: "individual", M: baseline()},
		{Name: "unpadded-responder", M: deviate(map[Scenario]string{
			ScenarioPadding: CellVN, ScenarioIdle: closeNoError})},
	}
}
