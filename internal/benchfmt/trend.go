package benchfmt

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// ReadLenient parses a benchmark artifact in either the current
// "mklite-bench/v1" schema or the pre-schema legacy layout the first bench
// PRs emitted (no "schema" field, a flat "wall_clock_seconds" map, and
// derived scalars as loose top-level keys). Legacy modes carry no rep count
// or spread — their spread reads as zero, so trend bands over them reduce to
// the bare TolPercent. New code should emit via New/Marshal and read via
// Read; this reader exists so `mkbench trend` can walk the whole checked-in
// BENCH_*.json history.
func ReadLenient(data []byte) (*File, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("benchfmt: parsing: %w", err)
	}
	if probe.Schema != "" {
		return Read(data)
	}

	var legacy struct {
		Figure   string             `json:"figure"`
		Maxprocs int                `json:"gomaxprocs"`
		Seconds  map[string]float64 `json:"wall_clock_seconds"`
	}
	if err := json.Unmarshal(data, &legacy); err != nil {
		return nil, fmt.Errorf("benchfmt: parsing legacy file: %w", err)
	}
	if len(legacy.Seconds) == 0 {
		return nil, fmt.Errorf("benchfmt: no schema and no wall_clock_seconds: not a benchmark file")
	}
	f := New(legacy.Figure, legacy.Maxprocs)
	for _, k := range slices.Sorted(maps.Keys(legacy.Seconds)) {
		f.Modes[k] = Mode{Seconds: legacy.Seconds[k]}
	}
	// Legacy derived metrics are loose top-level numbers; collect every
	// scalar that is not one of the structural keys.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("benchfmt: parsing legacy file: %w", err)
	}
	for _, k := range slices.Sorted(maps.Keys(raw)) {
		switch k {
		case "figure", "gomaxprocs", "wall_clock_seconds":
			continue
		}
		var v float64
		if err := json.Unmarshal(raw[k], &v); err != nil {
			continue // non-numeric extras are not derived metrics
		}
		if f.Derived == nil {
			f.Derived = map[string]float64{}
		}
		f.Derived[k] = v
	}
	return f, nil
}

// TrendEntry is one point of a benchmark trajectory: a label (typically the
// artifact's filename) and its parsed file.
type TrendEntry struct {
	Label string
	File  *File
}

// Trend renders the per-mode and per-derived-metric trajectory across an
// ordered artifact history (oldest first) and flags every step that
// regresses — Compare's judgment rule, applied between each metric's
// consecutive appearances. Modes measured under different GOMAXPROCS are
// annotated but still compared: the history is what it is.
func Trend(entries []TrendEntry) *Result {
	res := &Result{}
	var b strings.Builder
	if len(entries) == 0 {
		res.Report = "no benchmark files\n"
		return res
	}

	procs := map[int]bool{}
	labelW := len("mode")
	var modes []map[string]Mode
	var derived []map[string]float64
	for _, e := range entries {
		procs[e.File.Maxprocs] = true
		labelW = max(labelW, len(e.Label))
		modes = append(modes, e.File.Modes)
		derived = append(derived, e.File.Derived)
	}
	if len(procs) > 1 {
		fmt.Fprintf(&b, "note: GOMAXPROCS varies across the history (%v); wall clocks are not comparable in general\n",
			slices.Sorted(maps.Keys(procs)))
	}

	for _, k := range keys(modes...) {
		fmt.Fprintf(&b, "mode %s:\n", k)
		var prev *TrendEntry
		for i := range entries {
			e := &entries[i]
			m, ok := e.File.Modes[k]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-*s %10.4fs", labelW, e.Label, m.Seconds)
			if m.SpreadPercent > 0 {
				fmt.Fprintf(&b, " (±%.1f%%)", m.SpreadPercent)
			}
			if prev != nil {
				p := prev.File.Modes[k]
				delta, band, regressed := modeStep(p, m)
				fmt.Fprintf(&b, "  %+.1f%%", delta)
				if regressed {
					fmt.Fprintf(&b, "  REGRESSION (band %.1f%%)", band)
					res.Regressions = append(res.Regressions,
						fmt.Sprintf("mode %s: %s %.4fs -> %s %.4fs (%+.1f%% > band %.1f%%)",
							k, prev.Label, p.Seconds, e.Label, m.Seconds, delta, band))
				}
			}
			b.WriteString("\n")
			prev = e
		}
	}

	for _, k := range keys(derived...) {
		fmt.Fprintf(&b, "derived %s:\n", k)
		var prev *TrendEntry
		for i := range entries {
			e := &entries[i]
			v, ok := e.File.Derived[k]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "  %-*s %12.3f", labelW, e.Label, v)
			if prev != nil {
				p := prev.File.Derived[k]
				if why := derivedStep(k, p, v); why != "" {
					fmt.Fprintf(&b, "  REGRESSION (%s)", why)
					res.Regressions = append(res.Regressions,
						fmt.Sprintf("derived %s: %s %.3f -> %s %.3f (%s)", k, prev.Label, p, e.Label, v, why))
				}
			}
			b.WriteString("\n")
			prev = e
		}
	}

	res.Report = b.String()
	return res
}
