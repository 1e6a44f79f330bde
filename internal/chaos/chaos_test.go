package chaos

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"quicscan/internal/core"
	"quicscan/internal/quic"
	"quicscan/internal/simnet"
	"quicscan/internal/telemetry"
)

// chaosScanConfig is the per-attempt budget used by the acceptance
// run: tight enough that a single attempt measurably fails under the
// default adversarial profile, generous enough that retries recover
// essentially everything. The budgets come from norace.go/race.go so
// the race detector's slowdown is not mistaken for packet loss.
func chaosScanConfig(retries int) ScanConfig {
	return ScanConfig{
		Timeout:      chaosTimeout,
		Retries:      retries,
		RetryBackoff: 50 * time.Millisecond,
		PTO:          chaosPTO,
		MaxPTOs:      2,
		Workers:      32,
	}
}

// replay names what reproduces a chaos run: the seed, the population
// and the profile, which fix every datagram's fate, and the first
// targets rep failed, by index and address. In a synctest bubble
// (bubble_test.go) each of them also fails alone in a fresh world.
func replay(cfg simnet.Config, population int, rep Report) string {
	var failed []string
	for i, r := range rep.Results {
		if r.Outcome != core.OutcomeSuccess && len(failed) < 5 {
			failed = append(failed, fmt.Sprintf("#%d %v (%s)", i, r.Target.Addr, r.Outcome))
		}
	}
	return fmt.Sprintf("replay with seed %d, %d targets, profile %+v; first failing targets: %v",
		cfg.Seed, population, cfg.Profile, failed)
}

// TestChaosScanRecovers is the acceptance run: 500 targets behind a
// deterministic 5% loss + 30ms±10ms jitter + 1% reorder profile (which
// datagram of which flow is lost is fixed by seed 42; on the wall clock
// a PTO may still fire early or late, so the outcome counts are exact
// only in a bubble). With retries the scan must reach >=99% success;
// without them it must do measurably worse; and the shared transport
// must never misroute a datagram.
func TestChaosScanRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tier skipped in -short mode")
	}
	const population = 500
	cfg := simnet.Config{Seed: 42, Profile: DefaultProfile()}

	run := func(retries int) Report {
		w, err := NewWorld(population, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		return w.Scan(context.Background(), chaosScanConfig(retries))
	}

	withRetries := run(3)
	t.Logf("with retries:    %v", withRetries.Summary)
	t.Logf("  transport:     %+v", withRetries.Transport)
	t.Logf("  impairments:   %+v", withRetries.Impair)
	noRetries := run(0)
	t.Logf("without retries: %v", noRetries.Summary)

	if rate := withRetries.Summary.Rate(core.OutcomeSuccess); rate < 99 {
		t.Errorf("success with retries = %.2f%%, want >= 99%%; %s", rate, replay(cfg, population, withRetries))
	}
	if noRetries.Summary.Success >= withRetries.Summary.Success {
		t.Errorf("retries did not help: %d successes with vs %d without; %s",
			withRetries.Summary.Success, noRetries.Summary.Success, replay(cfg, population, noRetries))
	}
	for _, rep := range []Report{withRetries, noRetries} {
		if rep.Transport.RoutingMisses != 0 {
			t.Errorf("transport misrouted %d datagrams: %+v; %s", rep.Transport.RoutingMisses, rep.Transport, replay(cfg, population, rep))
		}
		if rep.Impair.Lost == 0 || rep.Impair.Reordered == 0 {
			t.Errorf("profile was not adversarial: %+v; %s", rep.Impair, replay(cfg, population, rep))
		}
	}
	// Recovery must be visible in the per-result accounting: some
	// targets needed more than one attempt.
	recovered := 0
	for _, r := range withRetries.Results {
		if r.Outcome == core.OutcomeSuccess && r.Attempts > 1 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Errorf("no target was recovered by a retry; the no-retry gap is unexplained; %s", replay(cfg, population, withRetries))
	}
}

// TestChaosRebindSurvival: flows whose socket moves mid-handshake or
// mid-transfer on the default adversarial link (5% loss, jitter,
// reordering) must still complete end to end with whole-flow retries:
// the server's path validation promotes the moved client, and PTO
// retransmission carries both sides across the loss. The >=99% bar
// matches the scan-recovery acceptance run.
func TestChaosRebindSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tier skipped in -short mode")
	}
	before := telemetry.Default().Snapshot().Counters["quic_migrations_total"]
	cfg := simnet.Config{Seed: 42, Profile: DefaultProfile()}
	w, err := NewWorld(50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rep := w.RebindRun(context.Background(), RebindConfig{
		Flows:    200,
		Attempts: 4,
		Timeout:  4 * chaosTimeout,
		PTO:      chaosPTO,
		MaxPTOs:  6,
		Workers:  32,
	})
	t.Logf("rebind survival: %+v", rep)
	if rate := 100 * float64(rep.Completions) / float64(rep.Flows); rate < 99 {
		t.Errorf("completions = %.2f%% (%d/%d), want >= 99%%; %s", rate, rep.Completions, rep.Flows, replay(cfg, 50, Report{}))
	}
	if rep.HandshakeRebinds == 0 {
		t.Error("no flow rebound mid-handshake; the scenario split is broken")
	}
	after := telemetry.Default().Snapshot().Counters["quic_migrations_total"]
	if after <= before {
		t.Errorf("no server promoted a migrated path (quic_migrations_total %d -> %d); %s", before, after, replay(cfg, 50, Report{}))
	}
}

// TestChaosRebindForcedAgainstDisabled: against a population that
// refuses migration, a client that rebinds and then forces the new
// path must never complete — the server ignores off-path challenges,
// path validation fails, and traffic stays pointed at the dead
// address.
func TestChaosRebindForcedAgainstDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tier skipped in -short mode")
	}
	cfg := simnet.Config{Seed: 43, Profile: DefaultProfile()}
	w, err := NewWorldPolicy(20, cfg, quic.ServerPolicy{DisableMigration: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rep := w.RebindRun(context.Background(), RebindConfig{
		Flows:    40,
		Attempts: 2,
		Timeout:  4 * chaosTimeout,
		PTO:      chaosPTO,
		MaxPTOs:  6,
		Workers:  32,
		Force:    true,
	})
	t.Logf("forced against disabled: %+v", rep)
	if rep.Completions != 0 {
		t.Errorf("%d flows completed against a migration-disabled population, want 0; %s", rep.Completions, replay(cfg, 20, Report{}))
	}
	if rep.ForcedRejected < rep.Flows*3/4 {
		t.Errorf("only %d/%d forced migrations were explicitly rejected; %s", rep.ForcedRejected, rep.Flows, replay(cfg, 20, Report{}))
	}
}

// TestChaosCorruptionDoesNotMisroute: bit corruption must surface as
// drops or handshake failures, never as routing misses — corrupted
// CIDs land in the transport's unroutable bucket.
func TestChaosCorruptionDoesNotMisroute(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tier skipped in -short mode")
	}
	cfg := simnet.Config{Seed: 7, Profile: DefaultProfile()}
	cfg.Profile.Corrupt = 0.02
	w, err := NewWorld(60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rep := w.Scan(context.Background(), chaosScanConfig(3))
	t.Logf("corruption run: %v transport=%+v impair=%+v", rep.Summary, rep.Transport, rep.Impair)
	if rep.Impair.Corrupted == 0 {
		t.Fatalf("corruption profile produced no corrupted datagrams; %s", replay(cfg, 60, rep))
	}
	if rep.Transport.RoutingMisses != 0 {
		t.Errorf("corrupted datagrams were misrouted: %+v; %s", rep.Transport, replay(cfg, 60, rep))
	}
}

// TestChaosSoakSweep is the extended experiment behind EXPERIMENTS.md:
// success rate across a loss sweep, with and without retries. Gated on
// SOAK=1 (minutes of runtime); `make soak` runs it.
func TestChaosSoakSweep(t *testing.T) {
	if os.Getenv("SOAK") == "" {
		t.Skip("soak sweep skipped; set SOAK=1 (make soak) to run")
	}
	for _, loss := range []float64{0, 0.02, 0.05, 0.10, 0.20} {
		for _, retries := range []int{0, 3} {
			cfg := simnet.Config{Seed: 42, Profile: DefaultProfile()}
			cfg.Profile.Loss = loss
			w, err := NewWorld(500, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := w.Scan(context.Background(), chaosScanConfig(retries))
			w.Close()
			t.Logf("loss=%.0f%% retries=%d: %v (routing misses %d)",
				loss*100, retries, rep.Summary, rep.Transport.RoutingMisses)
			if rep.Transport.RoutingMisses != 0 {
				t.Errorf("loss=%v retries=%d: %d routing misses; %s", loss, retries, rep.Transport.RoutingMisses, replay(cfg, 500, rep))
			}
		}
	}
}
