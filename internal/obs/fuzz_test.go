package obs

import "testing"

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
