//go:build race

package exec

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
