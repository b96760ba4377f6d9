// Fixture for the maprange analyzer: map iteration is flagged only when
// the loop body has order-dependent effects.
package maprange

import (
	"fmt"
	"strings"

	"mklite/internal/sim"
)

// Appending to a slice that outlives the loop leaks iteration order.
func appendOutside(m map[string]int) []string {
	var out []string
	for k := range m { // want `appends to out, which outlives the loop`
		out = append(out, k)
	}
	return out
}

// Appending to a loop-local slice is order-free: it dies each iteration.
func appendInside(m map[string]int) int {
	n := 0
	for k := range m {
		var tmp []string
		tmp = append(tmp, k)
		n += len(tmp)
	}
	return n
}

// Float accumulation is order-sensitive too, but it is floatorder's
// finding (its badMapSum fixture); maprange stays silent so the site is
// reported once.
func floatAccum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum
}

// Integer accumulation is associative, hence order-free.
func intAccum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Per-key map element updates touch each key exactly once: order-free.
func perKeyFloat(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// Printing emits bytes in iteration order.
func output(m map[string]int) {
	for k, v := range m { // want `writes output via fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

// Stream writes (builders, hashes, files) record iteration order too.
func builder(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want `writes to a stream via b\.WriteString`
		b.WriteString(k)
	}
	return b.String()
}

// Scheduling events in map order perturbs same-timestamp tie-breaking in
// the engine's queue, and with it the entire downstream timeline.
func schedule(e *sim.Engine, m map[string]int) {
	for _, v := range m { // want `schedules simulation events via e\.After`
		d := sim.Duration(v)
		e.After(d, func() {})
	}
}

// Drawing from an RNG that outlives the loop hands each key whichever
// draws its visit position gets.
func drawOuter(m map[string]float64, rng *sim.RNG) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m { // want `draws from RNG rng via rng\.Float64`
		out[k] = v * rng.Float64()
	}
	return out
}

// An RNG seeded per key inside the loop draws the same values whatever
// the visit order.
func drawInner(m map[string]uint64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, seed := range m {
		rng := sim.NewRNG(seed)
		out[k] = rng.Float64()
	}
	return out
}
