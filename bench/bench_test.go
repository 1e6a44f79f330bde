package main

import (
	"encoding/json"
	"net/netip"
	"os"
	"regexp"
	"testing"
)

// smokeConfig is the tier-1 size: a universe 16 times smaller than the
// fixture, one set-up, one repetition of one pass, a dark /16.
func smokeConfig() config {
	return config{seed: 9, scale: 32768, dark: netip.PrefixFrom(darkPrefix.Addr(), 16), setups: 1}
}

type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeclarationsMatchBenchmarkJSON holds the tables in metrics.go and
// workloads.go equal to BENCHMARK.json, which is what the driver reads.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the bench %q", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the bench %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the bench %+v", i, m, d)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the bench %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the bench %+v", i, m, d)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	if float64(spec.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds is %d, the -seconds default %v", spec.RunSeconds, defaultSeconds)
	}
}

// checkEmitted fails unless res carries exactly the declared names and
// its oracle passed.
func checkEmitted(t *testing.T, res *result, declared []decl) {
	t.Helper()
	if !res.Correct || res.Failed != 0 {
		t.Errorf("oracle: %d of %d ops disagree with the ground truth: %v", res.Failed, res.Attempted, res.Mismatches)
	}
	for _, d := range declared {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("declared metric %s was not emitted", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s emitted in %q, declared in %q", d.name, m.Unit, d.unit)
		}
	}
	if len(res.Metrics) != len(declared) {
		for n := range res.Metrics {
			if _, ok := unitOf(declared, n); !ok {
				t.Errorf("undeclared metric %s was emitted", n)
			}
		}
	}
}

// TestSmoke runs all four workloads untraced, and one fixture workload
// and campaign-mixed traced, at the tier-1 size. The three runs that
// wait on 2 s handshake timers overlap; their numbers mean nothing, the
// names and the oracle do.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	cfg := smokeConfig()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if w.open == nil {
				t.Parallel()
			}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s is %v; end-to-end metrics are never 0", d.name, res.Metrics[d.name].Value)
				}
			}
			if len(res.Fingerprint) == 0 {
				t.Error("no determinism fingerprint")
			}
		})
	}
	for _, name := range []string{"scan-cold", "campaign-mixed"} {
		w := findWorkload(name)
		t.Run("traced/"+name, func(t *testing.T) {
			t.Parallel()
			res, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, perLayer)
			if _, err := os.Stat(outDir + "/trace-" + name + ".json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 4, 8, 16, 32, 64}, [3]float64{2, 8, 32}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := decl{name: "cpu_us_per_op", better: "lower", bound: 0.10}
	higher := decl{name: "ops_per_s", better: "higher", bound: 0.10}
	tight := func(v float64) summary { return summarize("x", []float64{v * 0.99, v, v * 1.01}) }
	wide := func(v float64) summary { return summarize("x", []float64{v * 0.8, v, v * 1.2}) }
	for _, c := range []struct {
		d    decl
		a, b summary
		want string
	}{
		{lower, tight(100), tight(105), "unchanged"},
		{lower, tight(100), tight(115), "regression"},
		{lower, tight(100), tight(80), "improved"},
		{higher, tight(100), tight(85), "regression"},
		{higher, tight(100), tight(120), "improved"},
		{lower, wide(100), tight(105), "unresolved"},
		{lower, tight(100), wide(105), "unresolved"},
		{lower, wide(100), wide(130), "regression"},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
