// Package benchfmt defines the schema-versioned wall-clock benchmark
// artifact ("mklite-bench/v1") that the repo's bench ledger emits
// (BENCH.json) and that cmd/mkbench compares against a checked-in
// baseline. Wall-clock numbers are the one non-deterministic output the
// repo produces, so every mode records the best-of-N seconds together
// with the rep count and the spread across reps — a comparator that
// ignores the spread cannot tell a regression from scheduler noise.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// Schema versions the benchmark file format. Read refuses other schemas:
// a tolerance judgment across formats is meaningless.
const Schema = "mklite-bench/v1"

// Mode is one measured configuration (e.g. "sequential", "trace-counters").
type Mode struct {
	// Reps is how many back-to-back repetitions were timed.
	Reps int `json:"reps"`
	// Seconds is the best (minimum) wall clock across the reps — the
	// least-interfered-with estimate of the true cost.
	Seconds float64 `json:"seconds"`
	// SpreadPercent is (worst-best)/best*100 across the reps: the
	// noise floor below which deltas are not evidence.
	SpreadPercent float64 `json:"spread_percent"`
}

// File is one benchmark artifact: the measured modes plus derived scalar
// metrics (speedups, overhead percentages) computed from them.
type File struct {
	Schema   string             `json:"schema"`
	Figure   string             `json:"figure"`
	Maxprocs int                `json:"gomaxprocs"`
	Modes    map[string]Mode    `json:"modes"`
	Derived  map[string]float64 `json:"derived,omitempty"`
}

// New returns an empty file for the given figure.
func New(figure string, maxprocs int) *File {
	return &File{Schema: Schema, Figure: figure, Maxprocs: maxprocs, Modes: map[string]Mode{}}
}

// Marshal renders the file as indented JSON with a trailing newline.
// encoding/json sorts map keys, so the bytes are deterministic for a
// given set of measurements.
func (f *File) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Read parses a benchmark file, checking the schema.
func Read(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchfmt: parsing: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: schema %q, want %q", f.Schema, Schema)
	}
	return &f, nil
}

// The one judgment band every comparison applies. Absolute seconds are
// machine-dependent, so a mode fails only when it slows by more than
// TolPercent (it doubles) plus both sides' recorded spreads — noise cannot
// prove a regression. Derived "*_percent" overheads are within-machine
// ratios and fail when they grow by more than TolPoints percentage points.
// Other derived metrics are speedups, judged like seconds: they fail when
// the old value exceeds the new one by more than TolPercent (the speedup
// halved).
const (
	TolPercent = 100
	TolPoints  = 10
)

// modeStep judges one mode's step from o to n: the delta in percent, the
// spread-widened band, and whether the delta left it.
func modeStep(o, n Mode) (delta, band float64, regressed bool) {
	delta = (n.Seconds - o.Seconds) / o.Seconds * 100
	band = TolPercent + o.SpreadPercent + n.SpreadPercent
	return delta, band, delta > band
}

// derivedStep judges one derived metric's step from o to n, returning why
// it regressed or "".
func derivedStep(name string, o, n float64) string {
	if strings.HasSuffix(name, "_percent") {
		if n-o > TolPoints {
			return fmt.Sprintf("+%.1fpp > %dpp", n-o, TolPoints)
		}
		return ""
	}
	if o <= 0 {
		return ""
	}
	slower := math.Inf(1)
	if n > 0 {
		slower = (o/n - 1) * 100
	}
	if slower > TolPercent {
		return fmt.Sprintf("%.1f%% slower > %d%%", slower, TolPercent)
	}
	return ""
}

// keys returns the sorted union of the maps' keys.
func keys[V any](ms ...map[string]V) []string {
	u := map[string]bool{}
	for _, m := range ms {
		for k := range m {
			u[k] = true
		}
	}
	return slices.Sorted(maps.Keys(u))
}

// Result is the outcome of a comparison: a rendered report plus the list
// of regressions that exceeded their tolerance band.
type Result struct {
	Report      string
	Regressions []string
}

// Compare judges new against old, benchstat-style, by the one judgment
// band above. Metrics present on only one side are reported but never fail
// the gate.
func Compare(old, new *File) *Result {
	res := &Result{}
	var b strings.Builder
	if old.Figure != new.Figure {
		fmt.Fprintf(&b, "note: comparing different figures: %q vs %q\n", old.Figure, new.Figure)
	}
	if old.Maxprocs != new.Maxprocs {
		fmt.Fprintf(&b, "note: GOMAXPROCS differs: %d vs %d (wall clocks are not comparable in general)\n",
			old.Maxprocs, new.Maxprocs)
	}

	if modes := keys(old.Modes, new.Modes); len(modes) > 0 {
		fmt.Fprintf(&b, "%-18s %12s %12s %10s %10s\n", "mode", "old s", "new s", "delta", "band")
		for _, k := range modes {
			o, haveOld := old.Modes[k]
			n, haveNew := new.Modes[k]
			switch {
			case !haveOld:
				fmt.Fprintf(&b, "%-18s %12s %12.4f %10s %10s\n", k, "-", n.Seconds, "new", "-")
			case !haveNew:
				fmt.Fprintf(&b, "%-18s %12.4f %12s %10s %10s\n", k, o.Seconds, "-", "gone", "-")
			default:
				delta, band, regressed := modeStep(o, n)
				verdict := ""
				if regressed {
					verdict = "  REGRESSION"
					res.Regressions = append(res.Regressions,
						fmt.Sprintf("mode %s: %.4fs -> %.4fs (%+.1f%% > band %.1f%%)",
							k, o.Seconds, n.Seconds, delta, band))
				}
				fmt.Fprintf(&b, "%-18s %12.4f %12.4f %+9.1f%% %9.1f%%%s\n",
					k, o.Seconds, n.Seconds, delta, band, verdict)
			}
		}
	}

	if derived := keys(old.Derived, new.Derived); len(derived) > 0 {
		fmt.Fprintf(&b, "%-32s %12s %12s %10s\n", "derived", "old", "new", "delta")
		for _, k := range derived {
			o, haveOld := old.Derived[k]
			n, haveNew := new.Derived[k]
			switch {
			case !haveOld:
				fmt.Fprintf(&b, "%-32s %12s %12.3f %10s\n", k, "-", n, "new")
			case !haveNew:
				fmt.Fprintf(&b, "%-32s %12.3f %12s %10s\n", k, o, "-", "gone")
			default:
				verdict := ""
				if why := derivedStep(k, o, n); why != "" {
					verdict = "  REGRESSION"
					res.Regressions = append(res.Regressions,
						fmt.Sprintf("derived %s: %.3f -> %.3f (%s)", k, o, n, why))
				}
				fmt.Fprintf(&b, "%-32s %12.3f %12.3f %+10.3f%s\n", k, o, n, n-o, verdict)
			}
		}
	}
	res.Report = b.String()
	return res
}

// CheckBudget asserts an absolute ceiling on one derived metric of a
// file, e.g. counters_overhead_percent <= 5. Returns "" when the budget
// holds (or a descriptive failure otherwise). A missing metric fails: a
// budget on a metric the file does not record is a stale gate.
func (f *File) CheckBudget(name string, max float64) string {
	v, ok := f.Derived[name]
	if !ok {
		return fmt.Sprintf("budget %s<=%.3g: metric not present in file", name, max)
	}
	if math.IsNaN(v) || v > max {
		return fmt.Sprintf("budget %s<=%.3g: measured %.3f", name, max, v)
	}
	return ""
}
