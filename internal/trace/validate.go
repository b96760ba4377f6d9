package trace

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
)

// rawEvent mirrors the JSON shape for validation.
type rawEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Pid  int64   `json:"pid"`
	Tid  int64   `json:"tid"`
}

// ParseEvents parses a Chrome trace-event export produced by Events.JSON
// back into Event records — timestamps converted from the format's
// microsecond floats back to virtual nanoseconds — plus the ring's
// dropped-event count. It checks the schema but not span balance; run
// Validate first when that matters (the flame exporter does).
func ParseEvents(data []byte) ([]Event, int64, error) {
	var tr rawTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, 0, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if tr.OtherData.Schema != EventsSchema {
		return nil, 0, fmt.Errorf("trace: schema %q, want %q", tr.OtherData.Schema, EventsSchema)
	}
	out := make([]Event, 0, len(tr.TraceEvents))
	for i, ev := range tr.TraceEvents {
		if len(ev.Ph) != 1 {
			return nil, 0, fmt.Errorf("trace: event %d: phase %q", i, ev.Ph)
		}
		out = append(out, Event{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   ev.Ph[0],
			TS:   int64(math.Round(ev.TS * 1000)),
			Pid:  int32(ev.Pid),
			Tid:  int32(ev.Tid),
		})
	}
	return out, tr.OtherData.Dropped, nil
}

type rawTrace struct {
	TraceEvents []rawEvent `json:"traceEvents"`
	OtherData   struct {
		Schema  string `json:"schema"`
		Dropped int64  `json:"dropped"`
	} `json:"otherData"`
}

// Validate checks that data is a well-formed Chrome trace-event JSON dump as
// this package emits it: parseable, known phases, per-(pid,tid) monotone
// timestamps, and balanced B/E spans with matching names. When the ring
// dropped events the balance check is skipped (eviction can orphan spans)
// but monotonicity still must hold. mkrun runs this before writing a trace,
// and mkobs validate runs it on any trace or timeline file.
func Validate(data []byte) error {
	var tr rawTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if tr.OtherData.Schema != EventsSchema {
		return fmt.Errorf("trace: schema %q, want %q", tr.OtherData.Schema, EventsSchema)
	}
	type lane struct{ pid, tid int64 }
	lastTS := map[lane]float64{}
	stacks := map[lane][]string{}
	for i, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "B", "E", "i", "C":
		default:
			return fmt.Errorf("trace: event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.Name == "" {
			return fmt.Errorf("trace: event %d: empty name", i)
		}
		l := lane{ev.Pid, ev.Tid}
		if prev, ok := lastTS[l]; ok && ev.TS < prev {
			return fmt.Errorf("trace: event %d (%s): non-monotonic ts %.3f after %.3f on pid %d tid %d",
				i, ev.Name, ev.TS, prev, ev.Pid, ev.Tid)
		}
		lastTS[l] = ev.TS
		if tr.OtherData.Dropped > 0 {
			continue // eviction can orphan B/E pairs
		}
		switch ev.Ph {
		case "B":
			stacks[l] = append(stacks[l], ev.Name)
		case "E":
			st := stacks[l]
			if len(st) == 0 {
				return fmt.Errorf("trace: event %d: E %q with no open span on pid %d tid %d",
					i, ev.Name, ev.Pid, ev.Tid)
			}
			if top := st[len(st)-1]; top != ev.Name {
				return fmt.Errorf("trace: event %d: E %q closes open span %q on pid %d tid %d",
					i, ev.Name, top, ev.Pid, ev.Tid)
			}
			stacks[l] = st[:len(st)-1]
		}
	}
	if tr.OtherData.Dropped == 0 {
		lanes := slices.SortedFunc(maps.Keys(stacks), func(a, b lane) int {
			if a.pid != b.pid {
				return int(a.pid - b.pid)
			}
			return int(a.tid - b.tid)
		})
		for _, l := range lanes {
			if st := stacks[l]; len(st) > 0 {
				return fmt.Errorf("trace: %d unclosed span(s) on pid %d tid %d (first: %q)",
					len(st), l.pid, l.tid, st[0])
			}
		}
	}
	return nil
}
