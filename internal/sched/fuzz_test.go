package sched

import "testing"

// FuzzParseSched checks Parse on arbitrary policy names: it never panics,
// and every kind it accepts parses back to itself. Seeds live in
// testdata/fuzz/FuzzParseSched.
func FuzzParseSched(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		k, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(string(k))
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", s, k, err)
		}
		if again != k {
			t.Fatalf("Parse(%q) = %q, but Parse(%q) = %q", s, k, k, again)
		}
	})
}
