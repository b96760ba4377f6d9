//go:build !race

package mem

// raceEnabled reports a -race build, whose instrumentation changes
// inlining and escape decisions and with them allocation counts.
const raceEnabled = false
