//go:build race

package storage

// raceEnabled reports that the race detector is on: it allocates beside
// the code under test, so allocation counts are not asserted.
const raceEnabled = true
