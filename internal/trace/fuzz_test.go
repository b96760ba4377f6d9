package trace

import (
	"bytes"
	"maps"
	"testing"
)

// FuzzReadCounters: ReadCounters never panics, and every dump it accepts
// round-trips through WriteJSON to the same counters.
func FuzzReadCounters(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadCounters(data)
		if err != nil {
			return
		}
		c := NewCounters()
		c.MergeMap(m)
		var b bytes.Buffer
		if err := c.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCounters(b.Bytes())
		if err != nil {
			t.Fatalf("re-reading WriteJSON output: %v\n%s", err, b.Bytes())
		}
		if !maps.Equal(m, back) {
			t.Fatalf("round trip changed the counters: %v -> %v", m, back)
		}
	})
}

// FuzzParseEvents: Validate and ParseEvents never panic, and every trace
// Validate accepts also parses into named events of the four known phases.
func FuzzParseEvents(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, _, perr := ParseEvents(data)
		if Validate(data) != nil {
			return
		}
		if perr != nil {
			t.Fatalf("Validate accepts a trace ParseEvents rejects: %v", perr)
		}
		for i, ev := range evs {
			switch ev.Ph {
			case PhBegin, PhEnd, PhInstant, PhCounter:
			default:
				t.Fatalf("event %d: validated trace parsed to phase %q", i, ev.Ph)
			}
			if ev.Name == "" {
				t.Fatalf("event %d: validated trace parsed to an empty name", i)
			}
		}
	})
}
