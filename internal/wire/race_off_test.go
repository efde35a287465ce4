//go:build !race

package wire

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race, whose instrumentation allocates and
// whose sync.Pool drops a share of what is put back.
const raceEnabled = false
