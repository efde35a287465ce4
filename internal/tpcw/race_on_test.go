//go:build race

package tpcw

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
