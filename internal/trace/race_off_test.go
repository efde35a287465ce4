//go:build !race

package trace

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race (instrumentation and sync.Pool
// behavior add allocations that do not exist in normal builds).
const raceEnabled = false
