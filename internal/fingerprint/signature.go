package fingerprint

// signature is a known implementation's expected response matrix.
type signature struct {
	// Name labels the implementation blueprint, matching
	// internet.Profile.Impl for the simulated ground truth.
	Name string
	// M is the expected matrix.
	M Matrix
}

// signatureDB is an ordered signature database. Order does not affect
// classification: an observation equally distant from two signatures
// is ambiguous and abstains.
type signatureDB []signature

// maxDistance is the acceptance radius of Match: an observation
// farther than this from every signature classifies as unknown.
// One unit absorbs a single corrupted cell (an Alt-Svc-only
// deployment suppresses its VN answer, turning the vn cell silent);
// two keeps ghosts — which blank out every handshake scenario — out.
const maxDistance = 2

// verdictUnknown is the Name reported when nothing matches within
// maxDistance.
const verdictUnknown = "unknown"

// Verdict is the result of a database lookup.
type Verdict struct {
	// Name is the best-matching signature's name, or verdictUnknown.
	Name string
	// Distance is the cell distance to the best match (0 on an exact
	// hit). Meaningless when Name is verdictUnknown.
	Distance int
	// Exact reports a zero-distance match.
	Exact bool
}

// match classifies an observed matrix: nearest signature by cell
// distance, verdictUnknown beyond maxDistance. A distance tie between
// two signatures is ambiguous evidence and abstains rather than
// guessing — combined with the database invariant that signatures are
// pairwise ≥2 cells apart, this makes single-cell corruption safe by
// construction: the true row drops to distance 1, every other row
// stays at ≥1, so a wrong row can at worst tie (→ unknown), never
// win.
func (db signatureDB) match(m Matrix) Verdict {
	best, bestDist, ties := -1, int(numScenarios)+1, 0
	for i := range db {
		switch d := db[i].M.distance(m); {
		case d < bestDist:
			best, bestDist, ties = i, d, 1
		case d == bestDist:
			ties++
		}
	}
	if best < 0 || bestDist > maxDistance || ties > 1 {
		return Verdict{Name: verdictUnknown, Distance: bestDist}
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
		scenarioVN:        cellVN,
		scenarioPadding:   cellSilent,
		scenarioRetry:     cellRetryNone,
		scenarioReset:     cellReset,
		scenarioKeyUpdate: cellOK,
		scenarioGreaseTP:  cellOK,
		scenarioIdle:      cellSilent,
	}
}

// deviate returns the baseline with the given cells overridden.
func deviate(cells map[scenario]string) Matrix {
	m := baseline()
	for s, v := range cells {
		m[s] = v
	}
	return m
}

// defaultDB is the signature database for the simulated Internet's
// implementation blueprints (internet.AllProfiles). Each signature
// deviates from the baseline in a distinct *pair* of cells, so every
// two signatures differ in at least two cells: distinct pairs that
// share one member still disagree in both non-shared cells, and the
// all-baseline "individual" row is two deviations away from everyone.
// One corrupted cell therefore never turns one implementation into
// another.
func defaultDB() signatureDB {
	closeNoError := cellClose(0x0) // NO_ERROR
	closeTPError := cellClose(0x8) // TRANSPORT_PARAMETER_ERROR
	closeKUError := cellClose(0xe) // KEY_UPDATE_ERROR
	return signatureDB{
		{Name: "cloudflare-quiche", M: deviate(map[scenario]string{
			scenarioVN: cellVNGrease, scenarioIdle: closeNoError})},
		{Name: "google-quic", M: deviate(map[scenario]string{
			scenarioReset: cellSilent, scenarioKeyUpdate: closeKUError})},
		{Name: "akamai-quic", M: deviate(map[scenario]string{
			scenarioVN: cellVNGrease, scenarioKeyUpdate: closeKUError})},
		{Name: "fastly-quicly", M: deviate(map[scenario]string{
			scenarioRetry: cellRetryClose, scenarioReset: cellSilent})},
		{Name: "mvfst-origin", M: deviate(map[scenario]string{
			scenarioRetry: cellRetryDrop, scenarioIdle: closeNoError})},
		{Name: "hosting-lsws", M: deviate(map[scenario]string{
			scenarioGreaseTP: closeTPError, scenarioIdle: closeNoError})},
		{Name: "cloud-mixed", M: deviate(map[scenario]string{
			scenarioKeyUpdate: cellSilent, scenarioIdle: closeNoError})},
		{Name: "mvfst-edge", M: deviate(map[scenario]string{
			scenarioRetry: cellRetryClose, scenarioGreaseTP: closeTPError})},
		{Name: "gvs", M: deviate(map[scenario]string{
			scenarioKeyUpdate: cellSilent, scenarioGreaseTP: closeTPError})},
		{Name: "litespeed", M: deviate(map[scenario]string{
			scenarioVN: cellVNGrease, scenarioReset: cellSilent})},
		{Name: "nginx-quic", M: deviate(map[scenario]string{
			scenarioReset: cellSilent, scenarioGreaseTP: closeTPError})},
		{Name: "caddy-quicgo", M: deviate(map[scenario]string{
			scenarioVN: cellVNGrease, scenarioRetry: cellRetryLax})},
		{Name: "individual", M: baseline()},
		{Name: "unpadded-responder", M: deviate(map[scenario]string{
			scenarioPadding: cellVN, scenarioIdle: closeNoError})},
	}
}
