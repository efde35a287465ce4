//go:build !race

package tpcw

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race, whose instrumentation allocates.
const raceEnabled = false
