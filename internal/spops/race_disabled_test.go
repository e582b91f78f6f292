//go:build !race

package spops_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
