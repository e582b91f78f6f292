//go:build !race

package compress

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
