//go:build race

package parallel

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what is put back at random, so allocation counts vary.
const raceEnabled = true
