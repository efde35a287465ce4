//go:build race

package trace

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
