package experiments

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"time"

	"quicscan/internal/analysis"
	"quicscan/internal/fingerprint"
	"quicscan/internal/internet"
	"quicscan/internal/migration"
	"quicscan/internal/probe"
	"quicscan/internal/resumption"
)

// ProfileRow summarizes one behavioural scan mode's classification of
// one profile's active deployments against the ground-truth quirk the
// universe configured.
type ProfileRow struct {
	Profile string
	Truth   string
	Targets int
	// Flagged counts the deployments showing the mode's side
	// observation: advertising disable_active_migration (MIGRATION),
	// reusing a NEW_TOKEN on the rescan (RESUMPTION).
	Flagged  int
	Verdicts map[string]int
}

// correct counts deployments whose verdict matched the ground truth.
func (m ProfileRow) correct() int { return m.Verdicts[m.Truth] }

// activeTargets lists every BehaviorActive deployment of the universe
// as a probe target (its first domain as SNI), alongside the
// deployments themselves for ground truth.
func activeTargets(u *internet.Universe) ([]probe.Target, []*internet.Deployment) {
	var targets []probe.Target
	var deps []*internet.Deployment
	for _, d := range u.Deployments {
		if d.Behavior != internet.BehaviorActive {
			continue
		}
		sni := ""
		if len(d.Domains) > 0 {
			sni = d.Domains[0]
		}
		targets = append(targets, probe.Target{Addr: netip.AddrPortFrom(d.Addr, 443), SNI: sni})
		deps = append(deps, d)
	}
	return targets, deps
}

// tabulate groups one mode's results by profile, sorted by profile
// name. outcome reports, for the i-th deployment, the ground truth,
// the verdict and whether the mode's side observation held.
func tabulate(deps []*internet.Deployment, outcome func(i int) (truth, verdict string, flagged bool)) []ProfileRow {
	rows := make(map[string]*ProfileRow)
	for i, d := range deps {
		truth, verdict, flagged := outcome(i)
		row := rows[d.Profile.Name]
		if row == nil {
			row = &ProfileRow{Profile: d.Profile.Name, Truth: truth, Verdicts: make(map[string]int)}
			rows[d.Profile.Name] = row
		}
		row.Targets++
		if flagged {
			row.Flagged++
		}
		row.Verdicts[verdict]++
	}
	table := make([]ProfileRow, 0, len(rows))
	for _, row := range rows {
		table = append(table, *row)
	}
	sort.Slice(table, func(i, j int) bool { return table[i].Profile < table[j].Profile })
	return table
}

// confuseFingerprint scores fingerprint verdicts against the
// deployments' ground-truth implementation blueprints (Profile.Impl).
func confuseFingerprint(deps []*internet.Deployment, results []fingerprint.Result) *fingerprint.ConfusionMatrix {
	cm := fingerprint.NewConfusionMatrix()
	for i, res := range results {
		cm.Add(deps[i].Profile.Impl, res.Verdict.Name)
	}
	return cm
}

func tabulateMigration(deps []*internet.Deployment, results []migration.Result) []ProfileRow {
	return tabulate(deps, func(i int) (string, string, bool) {
		return deps[i].Profile.Quirks.Migration.String(), results[i].Verdict, results[i].TPDisabled
	})
}

func tabulateResumption(deps []*internet.Deployment, results []resumption.Result) []ProfileRow {
	return tabulate(deps, func(i int) (string, string, bool) {
		return deps[i].Profile.Quirks.Resumption.String(), results[i].Verdict, results[i].TokenReused
	})
}

// runModes classifies every BehaviorActive deployment of the headline
// universe with each enabled behavioural scan mode and scores the
// verdicts against the configured ground truth.
func (r *Report) runModes(u *internet.Universe, opts Options) {
	targets, deps := activeTargets(u)
	ctx := context.Background()
	const workers = 16
	// The simulated network is fast, but the campaign may run under the
	// race detector with many concurrent scenario goroutines; generous
	// waits keep a slow scheduler from turning live cells into
	// "silent" (a corrupted cell abstains rather than misclassifies,
	// but it still costs accuracy).
	d := probe.Dialer{
		DialPacket:       func() (net.PacketConn, error) { return u.Net.DialUDP() },
		HandshakeTimeout: 4 * time.Second,
	}
	if opts.Fingerprint {
		p := &fingerprint.Prober{Dialer: d, ProbeWait: 600 * time.Millisecond, PingWait: 2 * time.Second}
		r.FingerprintConfusion = confuseFingerprint(deps, p.Scan(ctx, workers, targets, nil))
	}
	if opts.Migration {
		p := &migration.Prober{Dialer: d, MigrateWait: 4 * time.Second}
		r.MigrationTable = tabulateMigration(deps, p.Scan(ctx, workers, targets, nil))
	}
	if opts.Resumption {
		p := &resumption.Prober{Dialer: d, TicketWait: 4 * time.Second}
		r.ResumptionTable = tabulateResumption(deps, p.Scan(ctx, workers, targets, nil))
	}
}

// renderFingerprint emits the implementation-fingerprinting confusion
// matrix (the extension beyond the paper's Table 6, which stops at
// passively observed transport parameters).
func (r *Report) renderFingerprint() string {
	if r.FingerprintConfusion == nil {
		return "Fingerprinting disabled: enable Options.Fingerprint (experiments -fingerprint) to classify active deployments behaviorally.\n"
	}
	var b strings.Builder
	b.WriteString("Implementation fingerprinting: active scenario suite (VN grease, padding,\n")
	b.WriteString("Retry token replay, stateless reset, key update, GREASE TP, idle teardown)\n")
	b.WriteString("over every BehaviorActive deployment; rows are ground-truth blueprints,\n")
	b.WriteString("columns the classified verdicts.\n\n")
	b.WriteString(r.FingerprintConfusion.Render())
	return b.String()
}

// renderMigration emits the migration-support classification table:
// per profile, the advertised transport parameter versus the
// behaviorally observed class. The split exposes deployments whose
// advertisement and behavior disagree (e.g. stacks that advertise
// migration support but silently ignore a moved peer).
func (r *Report) renderMigration() string {
	if r.MigrationTable == nil {
		return "Migration scan disabled: enable Options.Migration (experiments -migration) to classify active deployments.\n"
	}
	var b strings.Builder
	b.WriteString("Migration support: NAT-rebind probe over every BehaviorActive deployment.\n")
	b.WriteString("tp-disabled counts deployments advertising disable_active_migration;\n")
	b.WriteString("supported / disabled / validate-break are the behaviorally observed\n")
	b.WriteString("classes; truth is the configured ground-truth quirk.\n\n")
	var rows [][]string
	total, correct := 0, 0
	for _, row := range r.MigrationTable {
		total += row.Targets
		correct += row.correct()
		rows = append(rows, []string{
			row.Profile,
			fmt.Sprint(row.Targets),
			fmt.Sprint(row.Flagged),
			fmt.Sprint(row.Verdicts[migration.VerdictSupported]),
			fmt.Sprint(row.Verdicts[migration.VerdictDisabled]),
			fmt.Sprint(row.Verdicts[migration.VerdictValidateBreak]),
			row.Truth,
		})
	}
	b.WriteString(analysis.RenderTable(
		[]string{"Profile", "Targets", "TP-disabled", "Supported", "Disabled", "Validate-break", "Truth"}, rows))
	fmt.Fprintf(&b, "\nClassified %d/%d deployments correctly.\n", correct, total)
	return b.String()
}

// renderResumption emits the handshake fast-path classification
// table: per profile, the observed ticket/0-RTT behaviour of the
// second dial. The token-reuse column counts deployments whose Retry
// round trip disappeared on the rescan because the client replayed
// the NEW_TOKEN from the first connection.
func (r *Report) renderResumption() string {
	if r.ResumptionTable == nil {
		return "Resumption scan disabled: enable Options.Resumption (experiments -resumption) to classify active deployments.\n"
	}
	var b strings.Builder
	b.WriteString("Handshake fast path: two-dial resumption probe over every BehaviorActive\n")
	b.WriteString("deployment. 0rtt / no-ticket / ticket-no-0rtt / 0rtt-downgrade are the\n")
	b.WriteString("behaviorally observed classes; token-reuse counts rescans that skipped the\n")
	b.WriteString("Retry round trip with a NEW_TOKEN; truth is the configured quirk.\n\n")
	var rows [][]string
	total, correct := 0, 0
	for _, row := range r.ResumptionTable {
		total += row.Targets
		correct += row.correct()
		rows = append(rows, []string{
			row.Profile,
			fmt.Sprint(row.Targets),
			fmt.Sprint(row.Verdicts[resumption.Verdict0RTT]),
			fmt.Sprint(row.Verdicts[resumption.VerdictNoTicket]),
			fmt.Sprint(row.Verdicts[resumption.VerdictTicketNo0RTT]),
			fmt.Sprint(row.Verdicts[resumption.VerdictDowngrade]),
			fmt.Sprint(row.Flagged),
			row.Truth,
		})
	}
	b.WriteString(analysis.RenderTable(
		[]string{"Profile", "Targets", "0-RTT", "No-ticket", "Ticket-no-0RTT", "Downgrade", "Token-reuse", "Truth"}, rows))
	fmt.Fprintf(&b, "\nClassified %d/%d deployments correctly.\n", correct, total)
	return b.String()
}
