//go:build race

package sqlparser

// raceEnabled reports that the race detector is on: sync.Pool then drops
// pooled lexers at random, so allocation counts get slack.
const raceEnabled = true
