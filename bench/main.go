// Command bench is the repository benchmark: four workloads on one
// seeded scale-2048 universe. Untraced it reports the end-to-end
// metrics; with -trace 1 it reports the per-layer ledger, measured from
// outside the program. BENCHMARK.json declares every name it prints and
// README.md explains them.
//
//	go run ./bench -seed 9                  every workload, each in a child process
//	go run ./bench -seed 9 -trace 1         the same, traced
//	go run ./bench -workload scan-cold ...  one workload in this process; the last
//	                                        line of standard output is its JSON result
//	go run ./bench -compare a.json b.json   judge two -out files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed    = flag.Uint64("seed", 9, "universe seed: the only input of a workload")
		seconds = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = traced run: the per-layer metrics instead of the end-to-end ones")
		out     = flag.String("out", "", "also write the detailed results (quartiles, fingerprints) to this JSON file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments; no workload runs")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *name == "":
		err = runAll(*seed, *seconds, *trace == 1, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Results []*result `json:"results"`
}

func writeResults(path string, results []*result) error {
	data, err := json.MarshalIndent(resultFile{results}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Results, nil
}

// runOne runs one workload in this process. The last line of standard
// output is the result object the driver reads.
func runOne(name string, seed uint64, seconds float64, traced bool, out string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	pinRuntime()
	cfg := defaultConfig(seed, seconds)
	var (
		res *result
		err error
	)
	if traced {
		res, err = runTraced(w, cfg)
	} else {
		res, err = runWorkload(w, cfg)
	}
	if err != nil {
		return err
	}
	printResult(res)
	if out != "" {
		if err := writeResults(out, []*result{res}); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	for n, m := range res.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops disagree with the ground truth", name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload in a fresh child process each, so that
// ru_maxrss and the process-global telemetry registry are per
// workload. campaign-mixed runs one repetition per process and gets
// two processes, so that it has a spread at all.
func runAll(seed uint64, seconds float64, traced bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	var results []*result
	for i := range workloads {
		w := &workloads[i]
		processes := 1
		if w.open == nil && !traced {
			processes = 2
		}
		var merged *result
		for p := 0; p < processes; p++ {
			tmp := filepath.Join(outDir, fmt.Sprintf("child-%s-%d.json", w.name, p))
			cmd := exec.Command(exe,
				"-workload", w.name,
				"-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", traceArg,
				"-out", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			got, err := readResults(tmp)
			os.Remove(tmp)
			if err != nil {
				return err
			}
			if merged == nil {
				merged = got[0]
			} else if err := merged.merge(got[0]); err != nil {
				return err
			}
		}
		results = append(results, merged)
	}
	if out != "" {
		return writeResults(out, results)
	}
	return nil
}

// merge folds another process's run of the same workload into r: the
// samples are pooled and summarized again.
func (r *result) merge(o *result) error {
	if diff := diffCounts(r.Fingerprint, o.Fingerprint); diff != "" {
		return fmt.Errorf("%s: two processes of one seed disagree: %s", r.Workload, diff)
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Correct = r.Correct && o.Correct
	for name, m := range r.Metrics {
		r.Metrics[name] = summarize(m.Unit, append(m.Samples, o.Metrics[name].Samples...))
	}
	if math.Abs(o.DriftPct) > math.Abs(r.DriftPct) {
		r.DriftPct, r.CalibNs = o.DriftPct, o.CalibNs
	}
	return nil
}

func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-15s %-38s %16.4f %-6s", res.Workload, n, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Printf(" q1=%.4f q3=%.4f n=%d", m.Q1, m.Q3, m.N)
		}
		fmt.Println()
	}
	fp, _ := json.Marshal(res.Fingerprint)
	fmt.Printf("%-15s fingerprint %s\n", res.Workload, fp)
	if res.Unstable != nil {
		un, _ := json.Marshal(res.Unstable)
		fmt.Printf("%-15s unstable_counts %s\n", res.Workload, un)
	}
	for _, m := range res.Mismatches {
		fmt.Printf("%-15s mismatch %s\n", res.Workload, m)
	}
	fmt.Printf("%-15s attempted=%d failed=%d failed_share=%.6f host.calib_drift_pct=%.2f\n",
		res.Workload, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.DriftPct)
}
