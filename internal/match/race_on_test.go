//go:build race

package match

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts by design, so allocation counts measure the detector,
// not the code.
const raceEnabled = true
