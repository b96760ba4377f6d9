package fault

import (
	"reflect"
	"testing"
)

// FuzzParsePlan checks ParsePlan on arbitrary specs: it never panics, and
// every plan it accepts survives a String round trip — the canonical
// rendering parses back to an identical plan, and is a fixed point of
// ParsePlan then String. Seeds live in testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := ParsePlan(canon)
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %+v renders as %q, which does not parse: %v", spec, p, canon, err)
		}
		if canon == "" {
			if q != nil || (p != nil && !reflect.DeepEqual(p, &Plan{})) {
				t.Fatalf("ParsePlan(%q) = %+v renders as %q but is not empty", spec, p, canon)
			}
			return
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip of %q through %q changed the plan:\n  %+v\n  %+v", spec, canon, p, q)
		}
		if again := q.String(); again != canon {
			t.Fatalf("String is not canonical: %q then %q", canon, again)
		}
	})
}
