//go:build race

package mmdb

// raceEnabled reports that the race detector is on: it grows every heap
// object, so tests that measure bytes skip.
const raceEnabled = true
