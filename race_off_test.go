//go:build !race

package mmdb

const raceEnabled = false
