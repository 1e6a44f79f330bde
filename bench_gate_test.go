package quicscan

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// The committed baseline of `make check`'s performance gate, and the
// part of a bench -out file that `-compare` reads.
const baselineFile = "BENCH_baseline.json"

type benchRun struct {
	Results []*benchResult `json:"results"`
}

type benchResult struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Trace       bool                   `json:"trace"`
	Correct     bool                   `json:"correct"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]benchMetric `json:"metrics"`
	Fingerprint map[string]string      `json:"fingerprint"`
}

type benchMetric struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func readBaseline(t *testing.T) *benchRun {
	t.Helper()
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		t.Fatal(err)
	}
	var run benchRun
	if err := json.Unmarshal(data, &run); err != nil {
		t.Fatalf("%s: %v", baselineFile, err)
	}
	return &run
}

func (r *benchRun) workload(t *testing.T, name string) *benchResult {
	t.Helper()
	for _, res := range r.Results {
		if res.Workload == name {
			return res
		}
	}
	t.Fatalf("%s has no workload %q", baselineFile, name)
	return nil
}

// TestBaselineIsCurrent: the baseline is an untraced seed-9 run without
// failed ops that holds every workload × end-to-end metric
// BENCHMARK.json declares, so the gate compares all of them.
func TestBaselineIsCurrent(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or no end-to-end metrics")
	}
	run := readBaseline(t)
	for _, w := range spec.Workloads {
		res := run.workload(t, w.Name)
		if res.Seed != 9 || res.Trace || !res.Correct || res.Failed != 0 {
			t.Errorf("%s: seed %d, trace %v, correct %v, failed %d; want an untraced, correct seed-9 run", w.Name, res.Seed, res.Trace, res.Correct, res.Failed)
		}
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: no %s", w.Name, m.Name)
			}
		}
	}
}

// TestBenchGateVerdicts drives scripts/bench-gate.sh with doctored
// copies of the baseline; no workload runs.
func TestBenchGateVerdicts(t *testing.T) {
	for _, c := range []struct {
		name   string
		doctor func(*benchResult) // applied to scan-cold; nil = the baseline itself
		pass   bool
		want   string // a line of the output
	}{
		{"identical", nil, true, `^bench-gate: OK$`},
		{"allocs +10 %, bound 5 %", func(r *benchResult) {
			m := r.Metrics["allocs_per_op"]
			m.Value, m.Q1, m.Q3 = 1.1*m.Value, 1.1*m.Q1, 1.1*m.Q3
			r.Metrics["allocs_per_op"] = m
		}, false, `^bench-gate: FAIL\s+scan-cold\s+allocs_per_op\s+regression `},
		{"fingerprint", func(r *benchResult) {
			r.Fingerprint["outcome_success"] += "0"
		}, false, `^bench-gate: FAIL\s+scan-cold\s+fingerprint DIFFERS`},
		{"failed ops", func(r *benchResult) {
			r.Failed = 3
		}, false, `^bench-gate: FAIL\s+scan-cold\s+failed ops rose`},
		{"quartiles wider than the bound", func(r *benchResult) {
			m := r.Metrics["ops_per_s"]
			m.Q1, m.Q3 = 0.8*m.Value, 1.2*m.Value
			r.Metrics["ops_per_s"] = m
		}, true, `^bench-gate: unresolved\s+scan-cold\s+ops_per_s\s+unresolved `},
		// What -compare calls a regression although the candidate's own
		// repetitions are further apart than the bound.
		{"median past the bound inside such quartiles", func(r *benchResult) {
			m := r.Metrics["setup_s"]
			m.Value *= 1.46
			m.Q1, m.Q3 = 0.6*m.Value, 1.4*m.Value
			r.Metrics["setup_s"] = m
		}, true, `^bench-gate: unresolved\s+scan-cold\s+setup_s\s+regression `},
	} {
		t.Run(c.name, func(t *testing.T) {
			candidate := baselineFile
			if c.doctor != nil {
				run := readBaseline(t)
				c.doctor(run.workload(t, "scan-cold"))
				data, err := json.Marshal(run)
				if err != nil {
					t.Fatal(err)
				}
				candidate = filepath.Join(t.TempDir(), "candidate.json")
				if err := os.WriteFile(candidate, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			out, err := exec.Command("scripts/bench-gate.sh", baselineFile, candidate).CombinedOutput()
			if (err == nil) != c.pass {
				t.Errorf("gate passed = %v, want %v\n%s", err == nil, c.pass, out)
			}
			if !regexp.MustCompile("(?m)" + c.want).Match(out) {
				t.Errorf("no output line matches %s\n%s", c.want, out)
			}
		})
	}
	// A comparison that cannot be made is a failure, not a pass.
	if out, err := exec.Command("scripts/bench-gate.sh", baselineFile, "no-such-file.json").CombinedOutput(); err == nil {
		t.Errorf("gate passed on a missing candidate\n%s", out)
	}
}
