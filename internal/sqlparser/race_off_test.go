//go:build !race

package sqlparser

const raceEnabled = false
