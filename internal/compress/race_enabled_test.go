//go:build race

package compress

// raceEnabled reports whether the race detector is compiled in; alloc
// guards skip under it because instrumentation inflates the counts.
const raceEnabled = true
