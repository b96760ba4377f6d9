package benchfmt

import (
	"maps"
	"testing"
)

// FuzzReadLenient: ReadLenient never panics, and every file it accepts —
// current schema or legacy — survives Marshal then Read with the same modes
// and derived metrics. Seeds live in testdata/fuzz/FuzzReadLenient and
// include both legacy history files, BENCH_PR2.json and BENCH_PR3.json.
func FuzzReadLenient(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := ReadLenient(data)
		if err != nil {
			return
		}
		out, err := file.Marshal()
		if err != nil {
			t.Fatalf("accepted %q but cannot marshal it: %v", data, err)
		}
		back, err := Read(out)
		if err != nil {
			t.Fatalf("accepted %q but its rendering does not read back: %v\n%s", data, err, out)
		}
		if !maps.Equal(file.Modes, back.Modes) || !maps.Equal(file.Derived, back.Derived) {
			t.Fatalf("round trip of %q changed the metrics:\n%+v\n%+v", data, file, back)
		}
	})
}
