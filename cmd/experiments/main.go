// Command experiments runs the full measurement campaign against the
// simulated Internet and regenerates the paper's tables and figures.
//
//	experiments                      # everything, default scale
//	experiments -run T3              # one artifact
//	experiments -scale 2048 -quick   # faster, smaller universe
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"quicscan/internal/experiments"
	"quicscan/internal/internet"
)

func main() {
	var (
		run     = flag.String("run", "", "experiment ID to render (default: all); one of "+strings.Join(experiments.ExperimentIDs, ","))
		scale   = flag.Int("scale", 2048, "population downscale factor vs the paper's counts")
		asScale = flag.Int("as-scale", 0, "AS count downscale factor (default scale/64)")
		seed    = flag.Uint64("seed", 42, "population seed")
		weeks   = flag.String("weeks", "", "comma-separated calendar weeks (default 5,7,9,11,14,15,16,18)")
		quick   = flag.Bool("quick", false, "skip the weekly series, only the headline week")
		out     = flag.String("out", "", "write the report to a file instead of stdout")
		tsvDir  = flag.String("tsv", "", "also export machine-readable TSV datasets to this directory")
		fprint  = flag.Bool("fingerprint", false, "also run the behavioral fingerprinting suite over active deployments (FINGERPRINT artifact)")
		migrate = flag.Bool("migration", false, "also classify connection-migration support over active deployments (MIGRATION artifact)")
		resume  = flag.Bool("resumption", false, "also classify the handshake fast path (tickets, 0-RTT, NEW_TOKEN) over active deployments (RESUMPTION artifact)")
	)
	flag.Parse()

	opts := experiments.Options{
		Spec:        internet.Spec{Seed: *seed, Scale: *scale, ASScale: *asScale},
		SkipWeekly:  *quick,
		Fingerprint: *fprint,
		Migration:   *migrate,
		Resumption:  *resume,
	}
	if *weeks != "" {
		for _, w := range strings.Split(*weeks, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil {
				fatal("parsing -weeks: %v", err)
			}
			opts.Weeks = append(opts.Weeks, n)
		}
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "experiments: running campaign (scale 1/%d)...\n", *scale)
	report, err := experiments.Run(opts)
	if err != nil {
		fatal("%v", err)
	}
	defer report.Close()
	stop := time.Now()
	fmt.Fprintf(os.Stderr, "experiments: campaign finished in %v\n", stop.Sub(start).Round(time.Millisecond))
	for _, st := range report.Stages {
		fmt.Fprintf(os.Stderr, "experiments:   week %2d  %-11s %7.2fs - %6.2fs  (%.2fs)\n",
			st.Week, st.Name, st.Start.Seconds(), st.End.Seconds(), (st.End - st.Start).Seconds())
	}

	// One manifest per directory that received output.
	manifestDirs := make(map[string]bool)
	if *tsvDir != "" {
		if err := report.WriteTSV(*tsvDir); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: TSV datasets written to %s\n", *tsvDir)
		manifestDirs[filepath.Clean(*tsvDir)] = true
	}

	text := report.RenderAll()
	if *run != "" {
		text = report.Render(*run)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fatal("writing -out: %v", err)
		}
		manifestDirs[filepath.Dir(*out)] = true
	} else {
		fmt.Print(text)
	}
	for dir := range manifestDirs {
		if err := writeManifest(dir, start, stop, report.Stages); err != nil {
			fatal("%v", err)
		}
	}
}

// writeManifest writes dir/manifest.json: what produced the output
// beside it. Wall-clock values live here and in no table or dataset.
func writeManifest(dir string, start, stop time.Time, stages []experiments.Stage) error {
	type stage struct {
		Week   int     `json:"week"`
		Name   string  `json:"name"`
		StartS float64 `json:"start_s"`
		EndS   float64 `json:"end_s"`
	}
	m := struct {
		Flags       map[string]string `json:"flags"`
		VCSRevision string            `json:"vcs_revision,omitempty"`
		VCSModified string            `json:"vcs_modified,omitempty"`
		GoVersion   string            `json:"go_version"`
		GOMAXPROCS  int               `json:"gomaxprocs"`
		Hostname    string            `json:"hostname"`
		Start       time.Time         `json:"start"`
		Stop        time.Time         `json:"stop"`
		Stages      []stage           `json:"stages"`
	}{
		Flags:      make(map[string]string),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Start:      start,
		Stop:       stop,
	}
	// Every flag, set or defaulted: seed and scale are among them.
	flag.VisitAll(func(f *flag.Flag) { m.Flags[f.Name] = f.Value.String() })
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				m.VCSRevision = kv.Value
			case "vcs.modified":
				m.VCSModified = kv.Value
			}
		}
	}
	m.Hostname, _ = os.Hostname() // an unnamed host is recorded as ""
	for _, st := range stages {
		m.Stages = append(m.Stages, stage{st.Week, st.Name, st.Start.Seconds(), st.End.Seconds()})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding manifest: %w", err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	fmt.Fprintf(os.Stderr, "experiments: run manifest written to %s\n", path)
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
