package benchfmt

import (
	"strings"
	"testing"
)

func sample() *File {
	f := New("figure4-quick", 4)
	f.Modes["sequential"] = Mode{Reps: 5, Seconds: 0.40, SpreadPercent: 2.0}
	f.Modes["trace-counters"] = Mode{Reps: 5, Seconds: 0.41, SpreadPercent: 2.5}
	f.Derived = map[string]float64{
		"counters_overhead_percent": 2.5,
		"parallel_speedup":          2.1,
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sample()
	out, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Figure != f.Figure || got.Maxprocs != f.Maxprocs {
		t.Fatalf("roundtrip header mismatch: %+v", got)
	}
	if got.Modes["sequential"] != f.Modes["sequential"] {
		t.Fatalf("roundtrip mode mismatch: %+v", got.Modes["sequential"])
	}
	out2, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(out2) {
		t.Fatal("marshal not deterministic across a roundtrip")
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	if _, err := Read([]byte(`{"schema":"mklite-bench/v0"}`)); err == nil {
		t.Fatal("want schema error")
	}
	if _, err := Read([]byte(`not json`)); err == nil {
		t.Fatal("want parse error")
	}
}

func TestCompareWithinBand(t *testing.T) {
	old, new := sample(), sample()
	// 3% slower: inside the 100% band widened by 2+2.5% recorded spread.
	m := new.Modes["sequential"]
	m.Seconds = 0.412
	new.Modes["sequential"] = m
	res := Compare(old, new)
	if len(res.Regressions) != 0 {
		t.Fatalf("want clean comparison, got regressions %v\nreport:\n%s", res.Regressions, res.Report)
	}
	if !strings.Contains(res.Report, "sequential") || !strings.Contains(res.Report, "counters_overhead_percent") {
		t.Fatalf("report missing rows:\n%s", res.Report)
	}
}

func TestCompareModeRegression(t *testing.T) {
	old, new := sample(), sample()
	m := new.Modes["sequential"]
	m.Seconds = 1.0 // +150%: outside the 104.5% band
	new.Modes["sequential"] = m
	res := Compare(old, new)
	if len(res.Regressions) == 0 {
		t.Fatalf("want regression, report:\n%s", res.Report)
	}
	if !strings.Contains(res.Report, "REGRESSION") {
		t.Fatalf("report does not flag the regression:\n%s", res.Report)
	}
}

func TestCompareDerivedRegression(t *testing.T) {
	old, new := sample(), sample()
	new.Derived["counters_overhead_percent"] = 15 // +12.5pp > 10pp tolerance
	res := Compare(old, new)
	if len(res.Regressions) == 0 {
		t.Fatalf("want derived regression, report:\n%s", res.Report)
	}
	// Speedup direction: shrinking is the regression.
	old, new = sample(), sample()
	new.Derived["parallel_speedup"] = 1.0 // 2.1 -> 1.0: 110% slower
	if res := Compare(old, new); len(res.Regressions) == 0 {
		t.Fatalf("want speedup regression, report:\n%s", res.Report)
	}
	// A speedup that improves is fine.
	old, new = sample(), sample()
	new.Derived["parallel_speedup"] = 3.0
	if res := Compare(old, new); len(res.Regressions) != 0 {
		t.Fatalf("improvement flagged as regression: %v", res.Regressions)
	}
}

func TestCompareOneSidedMetrics(t *testing.T) {
	old, new := sample(), sample()
	delete(old.Modes, "trace-counters")
	new.Derived["metrics_overhead_percent"] = 3
	res := Compare(old, new)
	if len(res.Regressions) != 0 {
		t.Fatalf("one-sided entries must not fail the gate: %v", res.Regressions)
	}
	if !strings.Contains(res.Report, "new") {
		t.Fatalf("report does not mark new-only entries:\n%s", res.Report)
	}
}

func TestCheckBudget(t *testing.T) {
	f := sample()
	if msg := f.CheckBudget("counters_overhead_percent", 5); msg != "" {
		t.Fatalf("budget should hold: %s", msg)
	}
	if msg := f.CheckBudget("counters_overhead_percent", 2); msg == "" {
		t.Fatal("budget 2 should fail at 2.5")
	}
	if msg := f.CheckBudget("no_such_metric", 5); msg == "" {
		t.Fatal("missing metric should fail the budget")
	}
}
