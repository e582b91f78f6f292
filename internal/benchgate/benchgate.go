// Package benchgate makes a sub-benchmark that fails itself when one
// side of a timed pair is too slow against the other. `make bench-gates`
// runs every sub-benchmark named "gate"; `go test ./...` runs none.
package benchgate

import (
	"math"
	"testing"
	"time"
)

// MinRatio calls num and den once untimed, then for `rounds` alternating
// rounds, and returns the fastest num over the fastest den. Host noise
// only ever adds to a run, so each side's minimum is its sample closest
// to the code's own cost, and alternating shares a slow stretch of the
// host between the sides.
func MinRatio(rounds int, num, den func()) float64 {
	num()
	den()
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for r := 0; r < rounds; r++ {
		for i, f := range [2]func(){num, den} {
			start := time.Now()
			f()
			best[i] = min(best[i], time.Since(start))
		}
	}
	return float64(best[0]) / float64(best[1])
}

// Ratio reports MinRatio as the benchmark's "ratio" metric and fails
// the benchmark when it is above max.
func Ratio(b *testing.B, rounds int, max float64, num, den func()) {
	b.Helper()
	var r float64
	for i := 0; i < b.N; i++ {
		r = MinRatio(rounds, num, den)
	}
	b.ReportMetric(0, "ns/op") // suppressed: a gate's own duration measures nothing
	b.ReportMetric(r, "ratio")
	if r > max {
		b.Fatalf("ratio %.3f is above the %.2f bound", r, max)
	}
}
