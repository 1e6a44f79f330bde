package experiments

import (
	"bytes"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/internet"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
)

// quickOptions is the headline week alone at the tier-1 scale. The
// universe has some 80 silent targets: 128 workers wait them out in one
// round of timers.
func quickOptions() Options {
	return Options{Spec: internet.Spec{Seed: 7, Scale: 8192}, SkipWeekly: true, Workers: 128}
}

var (
	cachedQuick       *Report
	quickEngineProbes uint64 // what its Run added to campaign_probes_total
)

// quickCampaign runs quickOptions once per test binary.
func quickCampaign(t *testing.T) *Report {
	t.Helper()
	if cachedQuick == nil {
		before := telemetry.Default().Snapshot().Counters["campaign_probes_total"]
		rep, err := Run(quickOptions())
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		quickEngineProbes = telemetry.Default().Snapshot().Counters["campaign_probes_total"] - before
		cachedQuick = rep
	}
	return cachedQuick
}

// TestSweepV4RunsTheCampaignEngine: the IPv4 sweep of a campaign is the
// sweep cmd/zmapquic -prefixes runs, so every probe it reports is one
// the engine counted, and every one of them is a full-size Initial.
func TestSweepV4RunsTheCampaignEngine(t *testing.T) {
	r := quickCampaign(t)
	var reported uint64
	for _, wd := range r.Weeks {
		reported += uint64(wd.ZMapProbesV4)
		if wd.ZMapBytesV4 != int64(wd.ZMapProbesV4)*1200 {
			t.Errorf("week %d: %d bytes for %d probes", wd.Week, wd.ZMapBytesV4, wd.ZMapProbesV4)
		}
	}
	if reported == 0 || reported != quickEngineProbes {
		t.Errorf("the weeks report %d IPv4 probes, the engine issued %d", reported, quickEngineProbes)
	}
	var swept uint64
	for _, p := range r.Universe.V4Prefixes() {
		swept += 1 << (32 - p.Bits())
	}
	if got := uint64(r.Headline().ZMapProbesV4); got != swept {
		t.Errorf("%d probes for a sweep of %d addresses", got, swept)
	}
}

func (r *Report) statefulLists() map[string][]core.Result {
	return map[string][]core.Result{
		"no-SNI v4": r.StatefulNoSNIV4, "no-SNI v6": r.StatefulNoSNIV6,
		"SNI v4": r.StatefulSNIV4, "SNI v6": r.StatefulSNIV6,
	}
}

// TestRunRepeats: overlapping the stages leaves the campaign a function
// of its seed.
func TestRunRepeats(t *testing.T) {
	if raceEnabled {
		// 4 of 6 runs differed (spurious timeouts) while internal/core's
		// race tests ran beside this one, as under `go test -race ./...`.
		// What -race is here for, the overlap's data races, the other
		// tests of this file and smallCampaign exercise.
		t.Skip("exact repetition needs timers that are kept; see raceEnabled")
	}
	a := quickCampaign(t)
	b, err := Run(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, id := range ExperimentIDs {
		if x, y := a.Render(id), b.Render(id); x != y {
			t.Errorf("two runs of one seed rendered different %s:\n%s\nthen:\n%s", id, x, y)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := errors.Join(a.WriteTSV(dirA), b.WriteTSV(dirB)); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dirA)
	if err != nil || len(files) == 0 {
		t.Fatalf("TSV export: %d files, %v", len(files), err)
	}
	for _, f := range files {
		x, errA := os.ReadFile(filepath.Join(dirA, f.Name()))
		y, errB := os.ReadFile(filepath.Join(dirB, f.Name()))
		if errA != nil || errB != nil || !bytes.Equal(x, y) {
			t.Errorf("two runs of one seed exported different %s (%v, %v)", f.Name(), errA, errB)
		}
	}
	again := b.statefulLists()
	for name, list := range a.statefulLists() {
		if got, want := core.Summarize(again[name]), core.Summarize(list); got != want {
			t.Errorf("%s outcomes: %+v, then %+v", name, want, got)
		}
	}
	if len(a.TCPNoSNI) != len(b.TCPNoSNI) || len(a.TCPSNI) != len(b.TCPSNI) {
		t.Errorf("TCP comparison: %d/%d results, then %d/%d", len(a.TCPNoSNI), len(a.TCPSNI), len(b.TCPNoSNI), len(b.TCPSNI))
	}
}

// TestStatefulCut: the one scan's result slice is cut back into the
// four lists at the right places, and the cuts do not share capacity.
func TestStatefulCut(t *testing.T) {
	r := quickCampaign(t)
	wd := r.Headline()
	noSNI4, sni4 := statefulTargets(wd, "IPv4")
	noSNI6, sni6 := statefulTargets(wd, "IPv6")
	for _, tc := range []struct {
		name     string
		got      []core.Result
		want     int
		sni, is4 bool
	}{
		{"no-SNI v4", r.StatefulNoSNIV4, len(noSNI4), false, true},
		{"no-SNI v6", r.StatefulNoSNIV6, len(noSNI6), false, false},
		{"SNI v4", r.StatefulSNIV4, len(sni4), true, true},
		{"SNI v6", r.StatefulSNIV6, len(sni6), true, false},
	} {
		if len(tc.got) != tc.want || tc.want == 0 {
			t.Errorf("%s: %d results for %d targets", tc.name, len(tc.got), tc.want)
		}
		if cap(tc.got) != len(tc.got) {
			t.Errorf("%s: capacity %d beyond length %d reaches into the next list", tc.name, cap(tc.got), len(tc.got))
		}
		for _, res := range tc.got {
			if (res.Target.SNI != "") != tc.sni || res.Target.Addr.Is4() != tc.is4 {
				t.Errorf("%s holds %v sni=%q", tc.name, res.Target.Addr, res.Target.SNI)
				break
			}
		}
	}
	next := r.StatefulNoSNIV6[0]
	grown := append(r.StatefulNoSNIV4, core.Result{Target: core.Target{Addr: netip.MustParseAddr("192.0.2.1")}})
	if r.StatefulNoSNIV6[0].Target != next.Target {
		t.Errorf("append to the no-SNI v4 results overwrote the first no-SNI v6 result with %v", grown[len(grown)-1].Target.Addr)
	}
}

// TestStagesTimeline: every stage is on the record once, and the
// stages that are meant to overlap did.
func TestStagesTimeline(t *testing.T) {
	r := quickCampaign(t)
	byName := make(map[string]Stage)
	for _, st := range r.Stages {
		if _, dup := byName[st.Name]; dup {
			t.Errorf("stage %s recorded twice", st.Name)
		}
		if st.Week != 18 || st.Start < 0 || st.End < st.Start {
			t.Errorf("stage %+v", st)
		}
		byName[st.Name] = st
	}
	for _, name := range []string{"dns", "zmap-v4", "zmap-v6", "tls-altsvc", "stateful", "tcp-compare", "padding", "modes"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("stage %s not recorded", name)
		}
	}
	if len(byName) != 8 {
		t.Errorf("%d stage names, want 8: %+v", len(byName), r.Stages)
	}
	intersect := func(a, b string) {
		t.Helper()
		if x, y := byName[a], byName[b]; x.Start >= y.End || y.Start >= x.End {
			t.Errorf("%s %v-%v and %s %v-%v did not overlap", a, x.Start, x.End, b, y.Start, y.End)
		}
	}
	intersect("zmap-v4", "zmap-v6")
	intersect("zmap-v4", "tls-altsvc")
	intersect("zmap-v6", "tls-altsvc")
	intersect("tcp-compare", "stateful")
	intersect("padding", "stateful")
	for _, name := range []string{"zmap-v4", "zmap-v6", "tls-altsvc"} {
		if byName[name].Start < byName["dns"].End {
			t.Errorf("%s started at %v, before dns ended at %v", name, byName[name].Start, byName["dns"].End)
		}
	}
	if byName["modes"].Start < byName["stateful"].End {
		t.Errorf("modes started at %v, before stateful ended at %v", byName["modes"].Start, byName["stateful"].End)
	}
}

// TestRunWaitsForSiblingStages: when one of three overlapped stages
// fails, run reports it only once the other two have finished, and
// nothing of the universe it stopped is left behind.
func TestRunWaitsForSiblingStages(t *testing.T) {
	goroutines0 := runtime.NumGoroutine()
	errInjected := errors.New("injected socket failure")
	var calls atomic.Int32
	tl := &timeline{t0: time.Now()}
	rep, err := run(quickOptions(), tl, func(n *simnet.Network) (*simnet.PacketConn, error) {
		if calls.Add(1) == 1 { // whichever of the two discovery sweeps dials first
			return nil, errInjected
		}
		return n.DialUDP()
	})
	returned := time.Since(tl.t0)
	if !errors.Is(err, errInjected) || rep != nil {
		t.Fatalf("run = %v, %v; want no report and the injected error", rep, err)
	}
	// A stage is recorded when it returns, and tl.stages is read here
	// without its lock: a sibling still running is a missing record or
	// a report from the race detector.
	ended := make(map[string]time.Duration)
	for _, st := range tl.stages {
		ended[st.Name] = st.End
	}
	for _, name := range []string{"dns", "zmap-v4", "zmap-v6", "tls-altsvc"} {
		if end, ok := ended[name]; !ok || end > returned {
			t.Errorf("stage %s: ended at %v (recorded: %v), run returned at %v", name, end, ok, returned)
		}
	}
	if len(ended) != 4 {
		t.Errorf("stages after a failed discovery: %+v", tl.stages)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed run, %d before it", runtime.NumGoroutine(), goroutines0)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
