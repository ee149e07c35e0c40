//go:build !race

package match

const raceEnabled = false
