//go:build !race

package solver

// raceEnabled reports a -race build, whose instrumentation changes what
// allocation counts a test can expect.
const raceEnabled = false
