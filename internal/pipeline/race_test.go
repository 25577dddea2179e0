//go:build race

package pipeline

// raceEnabled reports a race-detector build, in which sync.Pool drops
// objects at random, so a pooled path's allocations cannot be counted.
const raceEnabled = true
