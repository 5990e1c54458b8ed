//go:build race

package serve

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// a pooled path's allocation count is not fixed in this build.
const raceEnabled = true
