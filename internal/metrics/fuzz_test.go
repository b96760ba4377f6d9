package metrics

import (
	"bytes"
	"testing"
)

// FuzzReadReport: ReadReport never panics; an accepted report renders,
// diffs identical against itself, and its WriteJSON bytes are a fixed point
// of read-then-write.
func FuzzReadReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReport(data)
		if err != nil {
			return
		}
		_ = rep.Render()
		if out, same := Diff(rep, rep); !same {
			t.Fatalf("self-diff reports differences:\n%s", out)
		}
		var first bytes.Buffer
		if err := rep.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadReport(first.Bytes())
		if err != nil {
			t.Fatalf("re-reading WriteJSON output: %v\n%s", err, first.Bytes())
		}
		if out, same := Diff(rep, back); !same {
			t.Fatalf("round trip changed the report:\n%s", out)
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteJSON not stable across a round trip:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
