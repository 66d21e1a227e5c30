//go:build !race

package parallel

// raceEnabled reports that the race detector is on.
const raceEnabled = false
