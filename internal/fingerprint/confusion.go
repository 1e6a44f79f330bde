package fingerprint

import (
	"fmt"
	"sort"
	"strings"
)

// ConfusionMatrix accumulates classification outcomes keyed by ground
// truth. It backs both the E2E classification test's golden file and
// the EXPERIMENTS.md table, so its rendering is deterministic.
type ConfusionMatrix struct {
	counts map[string]map[string]int // truth -> verdict -> n
}

// NewConfusionMatrix returns an empty matrix.
func NewConfusionMatrix() *ConfusionMatrix {
	return &ConfusionMatrix{counts: map[string]map[string]int{}}
}

// Add records one classification outcome.
func (c *ConfusionMatrix) Add(truth, verdict string) {
	row := c.counts[truth]
	if row == nil {
		row = map[string]int{}
		c.counts[truth] = row
	}
	row[verdict]++
}

// Total is the number of recorded outcomes.
func (c *ConfusionMatrix) Total() int {
	n := 0
	for _, row := range c.counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// correct counts outcomes whose verdict equals the ground truth.
func (c *ConfusionMatrix) correct() int {
	n := 0
	for truth, row := range c.counts {
		n += row[truth]
	}
	return n
}

// Accuracy is correct/Total (zero for an empty matrix).
func (c *ConfusionMatrix) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.correct()) / float64(t)
}

// Misclassified counts outcomes assigned to a *different* known
// implementation — unknown verdicts are abstentions, not confusions.
func (c *ConfusionMatrix) Misclassified() int {
	n := 0
	for truth, row := range c.counts {
		for verdict, v := range row {
			if verdict != truth && verdict != verdictUnknown {
				n += v
			}
		}
	}
	return n
}

// Render emits the matrix as a deterministic markdown table: one row
// per ground-truth class (sorted), one column per observed verdict
// (sorted, unknown last), plus a totals row.
func (c *ConfusionMatrix) Render() string {
	truths := make([]string, 0, len(c.counts))
	verdictSet := map[string]bool{}
	for truth, row := range c.counts {
		truths = append(truths, truth)
		for verdict := range row {
			verdictSet[verdict] = true
		}
	}
	sort.Strings(truths)
	hasUnknown := verdictSet[verdictUnknown]
	delete(verdictSet, verdictUnknown)
	verdicts := make([]string, 0, len(verdictSet)+1)
	for v := range verdictSet {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	if hasUnknown {
		verdicts = append(verdicts, verdictUnknown)
	}

	var b strings.Builder
	b.WriteString("| truth \\ verdict |")
	for _, v := range verdicts {
		fmt.Fprintf(&b, " %s |", v)
	}
	b.WriteString(" n |\n|---|")
	for range verdicts {
		b.WriteString("---|")
	}
	b.WriteString("---|\n")
	for _, truth := range truths {
		row := c.counts[truth]
		total := 0
		fmt.Fprintf(&b, "| %s |", truth)
		for _, v := range verdicts {
			n := row[v]
			total += n
			if n == 0 {
				b.WriteString(" |")
			} else {
				fmt.Fprintf(&b, " %d |", n)
			}
		}
		fmt.Fprintf(&b, " %d |\n", total)
	}
	fmt.Fprintf(&b, "\nTargets: %d, correct: %d (%.1f%%), misclassified: %d, unknown: %d\n",
		c.Total(), c.correct(), 100*c.Accuracy(), c.Misclassified(),
		c.Total()-c.correct()-c.Misclassified())
	return b.String()
}
