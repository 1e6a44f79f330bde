package fingerprint

import "testing"

// FuzzScenarioResponse exercises the response-matrix decoder: parse
// errors are fine, panics and lossy round trips are not.
func FuzzScenarioResponse(f *testing.F) {
	f.Add("")
	f.Add(baseline().String())
	for _, sig := range defaultDB() {
		f.Add(sig.M.String())
	}
	f.Add("vn=vn-grease|ku=close-0xe")
	f.Add("idle=close-0x0")
	f.Add("vn=")
	f.Add("vn")
	f.Add("vn=vn|vn=vn")
	f.Add("bogus=value")
	f.Add("vn=vn|pad=silent|retry=none|reset=reset|ku=ok|tp=ok|idle=silent|")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := parseMatrix(s)
		if err != nil {
			return
		}
		enc := m.String()
		m2, err := parseMatrix(enc)
		if err != nil {
			// Matrices with empty (unprobed) cells encode those
			// cells as empty values, which the strict parser
			// rejects; only fully probed matrices must round-trip.
			for _, cell := range m {
				if cell == "" {
					return
				}
			}
			t.Fatalf("re-parse of %q: %v", enc, err)
		}
		if m2 != m {
			t.Fatalf("round trip %q -> %q", enc, m2.String())
		}
	})
}

// FuzzSignatureMatch drives the database lookup with arbitrary
// matrices and checks its invariants: the verdict names a real
// signature or is unknown, the distance is within range, and Exact
// agrees with a zero distance.
func FuzzSignatureMatch(f *testing.F) {
	f.Add(baseline().String())
	for _, sig := range defaultDB() {
		f.Add(sig.M.String())
	}
	f.Add("vn=silent|pad=silent|retry=none|reset=silent|ku=silent|tp=silent|idle=silent")
	f.Add("vn=x|pad=y|retry=z|reset=w|ku=v|tp=u|idle=t")
	db := defaultDB()
	names := map[string]bool{verdictUnknown: true}
	for _, sig := range db {
		names[sig.Name] = true
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := parseMatrix(s)
		if err != nil {
			return
		}
		v := db.match(m)
		if !names[v.Name] {
			t.Fatalf("verdict names unknown signature %q", v.Name)
		}
		if v.Name != verdictUnknown {
			if v.Distance < 0 || v.Distance > maxDistance {
				t.Fatalf("accepted at distance %d", v.Distance)
			}
			if v.Exact != (v.Distance == 0) {
				t.Fatalf("exact flag inconsistent: %+v", v)
			}
		}
	})
}
