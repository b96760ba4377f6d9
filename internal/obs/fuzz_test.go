package obs

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzReadDecisions: ReadDecisions never panics, and every log it accepts
// round-trips through DecisionLog.JSON with no DiffDecisions row.
func FuzzReadDecisions(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadDecisions(data)
		if err != nil {
			return
		}
		l := NewDecisionLog()
		for _, d := range ds {
			l.Record(d)
		}
		out, err := l.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadDecisions(out)
		if err != nil {
			t.Fatalf("re-reading JSON output: %v\n%s", err, out)
		}
		if rows := DiffDecisions(ds, back); len(rows) > 0 {
			t.Fatalf("round trip changed the log: %v", rows)
		}
	})
}

// FuzzParseSLO: ParseSLO never panics, every rule it accepts has a
// non-empty, trimmed, operator-free metric name and a non-NaN threshold,
// and the SLO survives a String round trip: the rendering parses back to
// identical rules and is a fixed point of ParseSLO then String. Seeds live
// in testdata/fuzz/FuzzParseSLO.
func FuzzParseSLO(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSLO(spec)
		if err != nil {
			return
		}
		for _, r := range s.Rules {
			if r.Metric == "" || r.Metric != strings.TrimSpace(r.Metric) ||
				strings.Contains(r.Metric, OpLE) || strings.Contains(r.Metric, OpGE) ||
				math.IsNaN(r.Threshold) {
				t.Fatalf("ParseSLO(%q) accepted rule %+v", spec, r)
			}
		}
		canon := s.String()
		back, err := ParseSLO(canon)
		if err != nil {
			t.Fatalf("ParseSLO(%q) = %+v renders as %q, which does not parse: %v", spec, s.Rules, canon, err)
		}
		if !slices.Equal(s.Rules, back.Rules) {
			t.Fatalf("round trip of %q through %q changed the rules:\n  %+v\n  %+v", spec, canon, s.Rules, back.Rules)
		}
		if again := back.String(); again != canon {
			t.Fatalf("String is not canonical: %q then %q", canon, again)
		}
	})
}
