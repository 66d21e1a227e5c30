package obs

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Decision is one cost-model choice the planner made while executing a
// query — the plan-vs-actual audit record. The paper steers every
// algorithm choice by measured operation counts (§3.1); the audit closes
// that loop for the four runtime choosers (plan.ChooseRadixBits,
// ChooseSortMethod, ChooseWorkers, ChooseBatchSize): each records the
// inputs it saw, the value it chose, and the estimate the choice rested
// on; at query end the observed counters fill in Actual, and the error
// ratio says whether the estimate held up. The numbers are the record:
// RecordDecision counts a misprediction from them alone, and the engine
// fills the Chosen and Inputs text only for a decision that goes into a
// trace.
type Decision struct {
	Name   string // chooser: "batch", "workers", "radix bits", "radix balance", "sort method"
	Inputs string // the chooser's inputs, human-readable: "requested=8 rows=1.9M"
	Chosen string // the chosen value: "256-tuple blocks", "bits=[8 6]"

	// Estimate is the quantity the chooser assumed; Actual is the observed
	// value in the same Unit (0 = not observed, e.g. a decision whose
	// inputs were exact). Threshold is the error ratio at or above which
	// the decision counts as a misprediction (0 = never — informational
	// decisions like the sort-method pick).
	Estimate  float64
	Actual    float64
	Unit      string
	Threshold float64
}

// ErrRatio is the symmetric estimate error: max/min of estimate and
// actual, floored at one row so empty results stay finite. 1.0 means the
// estimate was exact; 0 means Actual was never observed.
func (d Decision) ErrRatio() float64 {
	if d.Actual <= 0 {
		return 0
	}
	est, act := d.Estimate, d.Actual
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

// Mispredicted reports whether the observed error crosses the decision's
// misprediction threshold.
func (d Decision) Mispredicted() bool {
	return d.Threshold > 0 && d.ErrRatio() >= d.Threshold
}

// Line renders the decision as one audit line:
//
//	radix bits: bits=[8 6] (build=1.9M rows)  estimate=128Ki actual=1.9M err=15.2x
func (d Decision) Line() string {
	var b strings.Builder
	b.WriteString(d.Name)
	b.WriteString(": ")
	b.WriteString(d.Chosen)
	if d.Inputs != "" {
		fmt.Fprintf(&b, " (%s)", d.Inputs)
	}
	fmt.Fprintf(&b, "  estimate=%s", FmtCount(d.Estimate))
	if d.Unit != "" {
		b.WriteString(" ")
		b.WriteString(d.Unit)
	}
	if d.Actual > 0 {
		fmt.Fprintf(&b, " actual=%s err=%.1fx", FmtCount(d.Actual), d.ErrRatio())
		if d.Mispredicted() {
			b.WriteString(" MISPREDICT")
		}
	}
	return b.String()
}

// FmtCount renders a row count compactly: exact below 10'000, then
// binary-suffixed (Ki/Mi/Gi) the way the radix crossover constants are
// quoted (plan.DefaultMinBuildRows = 128Ki).
func FmtCount(v float64) string {
	switch {
	case v < 10_000:
		// Fractional counts are forecasts; one decimal carries all the
		// signal an estimate has.
		return scaled(v, "")
	case v < 1<<20:
		return scaled(v/(1<<10), "Ki")
	case v < 1<<30:
		return scaled(v/(1<<20), "Mi")
	default:
		return scaled(v/(1<<30), "Gi")
	}
}

// scaled renders v to one decimal without a trailing ".0", followed by
// unit. It formats into a stack buffer, so the result is the only
// allocation whatever the magnitude — the audit formats a table
// cardinality on every query.
func scaled(v float64, unit string) string {
	var buf [32]byte
	b := strconv.AppendFloat(buf[:0], v, 'f', 1, 64)
	b = bytes.TrimSuffix(b, []byte(".0"))
	return string(append(b, unit...))
}

// FmtBytes renders a byte count with binary suffixes and a B unit
// (4096 → "4KiB") for the trace's budget line.
func FmtBytes(v int64) string {
	switch {
	case v < 1<<10:
		return fmt.Sprintf("%dB", v)
	case v < 1<<20:
		return scaled(float64(v)/(1<<10), "KiB")
	case v < 1<<30:
		return scaled(float64(v)/(1<<20), "MiB")
	default:
		return scaled(float64(v)/(1<<30), "GiB")
	}
}
