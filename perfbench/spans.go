package main

import (
	"encoding/json"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer. Durations are host
// time: CPU seconds of the whole process (the headline unit) and wall
// seconds (a diagnostic on a shared machine).
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index into the tracer's spans, -1 for a root
	Start  float64 `json:"start_s"`
	Wall   float64 `json:"wall_s"`
	CPU    float64 `json:"cpu_s"`

	cpu0 float64
}

// tracer keeps spans in memory for the traced run. A nil *tracer is the
// off switch: every method is a no-op, so the timed runs execute exactly the
// same calls with no recording.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: wallNow()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent,
		Start: wallNow().Sub(t.t0).Seconds(), cpu0: cpuSeconds()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.CPU = cpuSeconds() - s.cpu0
	s.Wall = wallNow().Sub(t.t0).Seconds() - s.Start
}

// cpu returns the CPU seconds of every span with the given name, in order.
func (t *tracer) cpu(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.CPU)
		}
	}
	return out
}

// cpuPrefix returns the CPU seconds of every span whose name starts with
// prefix.
func (t *tracer) cpuPrefix(prefix string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s.CPU)
		}
	}
	return out
}

// JSON renders the spans for the trace file the benchmark writes at exit.
func (t *tracer) JSON() ([]byte, error) { return json.MarshalIndent(t.spans, "", " ") }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
