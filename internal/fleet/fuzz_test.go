package fleet

import (
	"reflect"
	"testing"
)

// FuzzParsePolicy checks ParsePolicy on arbitrary names: it never panics,
// and every policy it accepts round-trips through its Name — the name
// parses back to an identical policy and is a fixed point of ParsePolicy
// then Name. Seeds live in testdata/fuzz/FuzzParsePolicy.
func FuzzParsePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParsePolicy(name, 1, 1, nil)
		if err != nil {
			return
		}
		canon := p.Name()
		q, err := ParsePolicy(canon, 1, 1, nil)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) is named %q, which does not parse: %v", name, canon, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip of %q through %q changed the policy:\n  %#v\n  %#v", name, canon, p, q)
		}
		if again := q.Name(); again != canon {
			t.Fatalf("Name is not canonical: %q then %q", canon, again)
		}
	})
}
