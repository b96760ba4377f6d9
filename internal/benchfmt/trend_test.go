package benchfmt

import (
	"strings"
	"testing"
)

const legacyJSON = `{
  "figure": "figure4-quick",
  "gomaxprocs": 1,
  "wall_clock_seconds": {
    "parallel": 0.35,
    "sequential": 0.41
  },
  "speedup": 1.17
}`

func TestReadLenientLegacy(t *testing.T) {
	f, err := ReadLenient([]byte(legacyJSON))
	if err != nil {
		t.Fatal(err)
	}
	if f.Figure != "figure4-quick" || f.Maxprocs != 1 {
		t.Fatalf("legacy header parsed as %q / %d", f.Figure, f.Maxprocs)
	}
	if m := f.Modes["sequential"]; m.Seconds != 0.41 || m.Reps != 0 || m.SpreadPercent != 0 {
		t.Fatalf("legacy mode = %+v, want bare seconds with zero reps/spread", m)
	}
	if f.Derived["speedup"] != 1.17 {
		t.Fatalf("legacy derived = %v, want loose top-level scalars collected", f.Derived)
	}
}

func TestReadLenientCurrentSchema(t *testing.T) {
	f := New("facility-quick", 4)
	f.Modes["quick"] = Mode{Reps: 5, Seconds: 1.2, SpreadPercent: 3}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadLenient(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || back.Modes["quick"] != f.Modes["quick"] {
		t.Fatalf("current-schema round trip mangled the file: %+v", back)
	}
}

func TestReadLenientRejectsNonBench(t *testing.T) {
	if _, err := ReadLenient([]byte(`{"hello": "world"}`)); err == nil {
		t.Fatal("accepted a JSON file with neither schema nor wall_clock_seconds")
	}
	if _, err := ReadLenient([]byte(`not json`)); err == nil {
		t.Fatal("accepted non-JSON input")
	}
}

func trendFile(figure string, secs map[string]float64, spread float64, derived map[string]float64) *File {
	f := New(figure, 1)
	for k, v := range secs {
		f.Modes[k] = Mode{Reps: 5, Seconds: v, SpreadPercent: spread}
	}
	f.Derived = derived
	return f
}

func TestTrendFlagsRegression(t *testing.T) {
	entries := []TrendEntry{
		{Label: "PR2", File: trendFile("q", map[string]float64{"m": 1.0}, 2, nil)},
		{Label: "PR3", File: trendFile("q", map[string]float64{"m": 1.05}, 2, nil)}, // +5% within band
		{Label: "PR4", File: trendFile("q", map[string]float64{"m": 2.20}, 2, nil)}, // +110% beyond the 104% band
	}
	res := Trend(entries)
	if len(res.Regressions) != 1 {
		t.Fatalf("regressions = %v, want exactly the PR3->PR4 step", res.Regressions)
	}
	if !strings.Contains(res.Regressions[0], "PR3") || !strings.Contains(res.Regressions[0], "PR4") {
		t.Fatalf("regression row does not name the step: %s", res.Regressions[0])
	}
	if !strings.Contains(res.Report, "REGRESSION") {
		t.Fatalf("report does not flag the step:\n%s", res.Report)
	}
}

func TestTrendSpreadWidensBand(t *testing.T) {
	// +120% step: beyond the bare 100% tolerance, inside 100% + 2x12% spread.
	noisy := []TrendEntry{
		{Label: "a", File: trendFile("q", map[string]float64{"m": 1.0}, 12, nil)},
		{Label: "b", File: trendFile("q", map[string]float64{"m": 2.2}, 12, nil)},
	}
	if res := Trend(noisy); len(res.Regressions) != 0 {
		t.Fatalf("spread-widened band should absorb the step: %v", res.Regressions)
	}
	quiet := []TrendEntry{
		{Label: "a", File: trendFile("q", map[string]float64{"m": 1.0}, 0, nil)},
		{Label: "b", File: trendFile("q", map[string]float64{"m": 2.2}, 0, nil)},
	}
	if res := Trend(quiet); len(res.Regressions) != 1 {
		t.Fatalf("zero-spread step should regress: %v", res.Regressions)
	}
}

func TestTrendSkipsMissingAndJudgesDerived(t *testing.T) {
	entries := []TrendEntry{
		{Label: "PR2", File: trendFile("q", map[string]float64{"m": 1.0}, 0, map[string]float64{"x_overhead_percent": 1, "speedup": 2.0})},
		{Label: "PR3", File: trendFile("q", nil, 0, nil)}, // metric absent: no step judged
		{Label: "PR4", File: trendFile("q", map[string]float64{"m": 1.01}, 0, map[string]float64{"x_overhead_percent": 15, "speedup": 0.5})},
	}
	res := Trend(entries)
	// The mode step PR2->PR4 is +1%: fine. Derived: overhead +14pp > 10pp and
	// speedup 2.0 -> 0.5 (300% slower > 100%) both regress.
	if len(res.Regressions) != 2 {
		t.Fatalf("regressions = %v, want the two derived steps", res.Regressions)
	}
	for _, r := range res.Regressions {
		if !strings.Contains(r, "PR2") || !strings.Contains(r, "PR4") {
			t.Fatalf("derived step should bridge the gap over PR3: %s", r)
		}
	}
}

func TestTrendEmpty(t *testing.T) {
	if res := Trend(nil); len(res.Regressions) != 0 || res.Report == "" {
		t.Fatal("empty history should render a note and pass")
	}
}
