//go:build !race

package machine

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
