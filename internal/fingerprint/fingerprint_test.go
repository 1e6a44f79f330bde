package fingerprint

import (
	"fmt"
	"strings"
	"testing"

	"quicscan/internal/internet"
)

func TestMatrixStringParseRoundTrip(t *testing.T) {
	for _, sig := range defaultDB() {
		enc := sig.M.String()
		got, err := parseMatrix(enc)
		if err != nil {
			t.Fatalf("%s: parse(%q): %v", sig.Name, enc, err)
		}
		if got != sig.M {
			t.Errorf("%s: round trip changed %q -> %q", sig.Name, enc, got.String())
		}
	}
}

func TestParseMatrixCells(t *testing.T) {
	m, err := parseMatrix("vn=vn-grease|ku=close-0xe")
	if err != nil {
		t.Fatal(err)
	}
	if m[scenarioVN] != cellVNGrease || m[scenarioKeyUpdate] != cellClose(0xe) {
		t.Errorf("cells: %q", m.String())
	}
	if m[scenarioIdle] != "" {
		t.Errorf("unprobed cell filled: %q", m[scenarioIdle])
	}
}

func TestParseMatrixErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"missing equals", "vn"},
		{"unknown key", "bogus=vn"},
		{"duplicate key", "vn=vn|vn=vn"},
		{"empty value", "vn="},
		{"bad character", "vn=V N"},
		{"uppercase", "vn=VN"},
		{"too long value", "vn=" + strings.Repeat("a", maxCellLen+1)},
		{"too long encoding", strings.Repeat("x", int(numScenarios)*(maxCellLen+8)+1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parseMatrix(c.in); err == nil {
				t.Errorf("parseMatrix(%q) accepted", c.in)
			}
		})
	}
	if _, err := parseMatrix(""); err != nil {
		t.Errorf("empty encoding rejected: %v", err)
	}
}

func TestMatchExactAndRadius(t *testing.T) {
	db := defaultDB()
	for _, sig := range db {
		v := db.match(sig.M)
		if !v.Exact || v.Name != sig.Name || v.Distance != 0 {
			t.Errorf("%s: self-match = %+v", sig.Name, v)
		}
	}
	// One corrupted cell still classifies (distance 1, not exact).
	m := db[0].M
	m[scenarioVN] = cellSilent
	v := db.match(m)
	if v.Name != db[0].Name || v.Distance != 1 || v.Exact {
		t.Errorf("one-cell corruption: %+v", v)
	}
	// A matrix far from everything is unknown.
	var far Matrix
	for i := range far {
		far[i] = "zz" // not in any signature's alphabet of outcomes
	}
	if v := db.match(far); v.Name != verdictUnknown {
		t.Errorf("far matrix classified as %+v", v)
	}
	if v := (signatureDB)(nil).match(m); v.Name != verdictUnknown {
		t.Errorf("empty db classified as %+v", v)
	}
}

func TestMatchTieAbstains(t *testing.T) {
	a := deviate(map[scenario]string{scenarioVN: cellVNGrease})
	b := deviate(map[scenario]string{scenarioReset: cellSilent})
	db := signatureDB{{Name: "first", M: a}, {Name: "second", M: b}}
	// The baseline is distance 1 from both: ambiguous, so Match must
	// abstain rather than guess by database order.
	if v := db.match(baseline()); v.Name != verdictUnknown {
		t.Errorf("tie classified as %+v", v)
	}
	// A strictly closer row still wins over a farther one.
	if v := db.match(a); v.Name != "first" || !v.Exact {
		t.Errorf("exact match: %+v", v)
	}
}

// TestSingleCellCorruptionNeverMisclassifies is the matcher's safety
// theorem: corrupt any one cell of any signature to any value another
// signature uses there (or to garbage), and Match returns either the
// true row or unknown — never a different implementation. This is
// what pairwise separation ≥2 plus tie-abstention buy.
func TestSingleCellCorruptionNeverMisclassifies(t *testing.T) {
	db := defaultDB()
	for _, sig := range db {
		for _, s := range scenarios() {
			values := map[string]bool{"zz-bogus": true, cellSilent: true}
			for _, other := range db {
				values[other.M[s]] = true
			}
			for val := range values {
				if val == sig.M[s] {
					continue
				}
				m := sig.M
				m[s] = val
				v := db.match(m)
				if v.Name != sig.Name && v.Name != verdictUnknown {
					t.Errorf("%s with %s=%s classified as %s",
						sig.Name, s, val, v.Name)
				}
			}
		}
	}
}

// TestDefaultDBPairwiseSeparation proves the error-correcting design:
// every two signatures differ in at least two cells, so a single
// corrupted observation can never turn one implementation into
// another.
func TestDefaultDBPairwiseSeparation(t *testing.T) {
	db := defaultDB()
	for i := range db {
		for j := i + 1; j < len(db); j++ {
			if d := db[i].M.distance(db[j].M); d < 2 {
				t.Errorf("signatures %s and %s differ in only %d cell(s)",
					db[i].Name, db[j].Name, d)
			}
		}
	}
}

// TestDefaultDBCoversProfiles pins the database to the simulated
// Internet's ground truth: every implementation blueprint has exactly
// one signature and vice versa.
func TestDefaultDBCoversProfiles(t *testing.T) {
	sigs := map[string]int{}
	for _, s := range defaultDB() {
		sigs[s.Name]++
	}
	for _, p := range internet.AllProfiles() {
		if p.Impl == "" {
			t.Errorf("profile %s has no Impl label", p.Name)
			continue
		}
		if sigs[p.Impl] != 1 {
			t.Errorf("profile %s: %d signatures named %q", p.Name, sigs[p.Impl], p.Impl)
		}
		delete(sigs, p.Impl)
	}
	for name := range sigs {
		t.Errorf("signature %q matches no profile", name)
	}
}

func TestScenarioNames(t *testing.T) {
	if got := len(scenarios()); got != int(numScenarios) {
		t.Fatalf("scenarios() = %d entries", got)
	}
	seen := map[string]bool{}
	for _, s := range scenarios() {
		name := s.String()
		if name == "" || strings.HasPrefix(name, "Scenario(") || seen[name] {
			t.Errorf("scenario %d name %q", int(s), name)
		}
		seen[name] = true
	}
	if scenario(99).String() != "Scenario(99)" {
		t.Errorf("out-of-range String: %q", scenario(99).String())
	}
}

// scenarios lists every scenario in matrix order.
func scenarios() []scenario {
	out := make([]scenario, numScenarios)
	for i := range out {
		out[i] = scenario(i)
	}
	return out
}

// maxCellLen bounds a single cell value; real outcome classes are far
// shorter, and the parser must not let hostile input balloon.
const maxCellLen = 32

// parseMatrix decodes the canonical encoding produced by
// Matrix.String, for the goldens and the round-trip tests. Cells may arrive in any order; every key must be
// known and appear at most once; missing keys yield empty ("not
// probed") cells. Values are restricted to the outcome-class alphabet
// [a-z0-9*-] so a matrix round-trips losslessly through reports.
func parseMatrix(s string) (Matrix, error) {
	var m Matrix
	if s == "" {
		return m, nil
	}
	if len(s) > int(numScenarios)*(maxCellLen+8) {
		return m, fmt.Errorf("fingerprint: matrix encoding too long (%d bytes)", len(s))
	}
	var seen [numScenarios]bool
	for _, part := range strings.Split(s, "|") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Matrix{}, fmt.Errorf("fingerprint: cell %q: missing '='", part)
		}
		idx := -1
		for i, k := range scenarioKeys {
			if k == key {
				idx = i
				break
			}
		}
		if idx < 0 {
			return Matrix{}, fmt.Errorf("fingerprint: unknown scenario key %q", key)
		}
		if seen[idx] {
			return Matrix{}, fmt.Errorf("fingerprint: duplicate scenario key %q", key)
		}
		seen[idx] = true
		if val == "" {
			return Matrix{}, fmt.Errorf("fingerprint: empty cell value for %q", key)
		}
		if len(val) > maxCellLen {
			return Matrix{}, fmt.Errorf("fingerprint: cell value for %q too long", key)
		}
		for _, r := range val {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' && r != '*' {
				return Matrix{}, fmt.Errorf("fingerprint: cell value %q for %q: invalid character", val, key)
			}
		}
		m[idx] = val
	}
	return m, nil
}
