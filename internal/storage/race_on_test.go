//go:build race

package storage

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
