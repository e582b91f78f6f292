package benchgate

import (
	"testing"
	"time"
)

// TestMinRatio drives the measuring half with sleeps. slowAt makes one
// call of a side (counting the warm-up as call 0) ten times slower: the
// minimum over rounds must not see it.
func TestMinRatio(t *testing.T) {
	const unit, bound, rounds = 5 * time.Millisecond, 1.5, 3
	sleeper := func(d time.Duration, slowAt int) func() {
		call := 0
		return func() {
			if call == slowAt {
				time.Sleep(10 * d)
			} else {
				time.Sleep(d)
			}
			call++
		}
	}
	for _, tc := range []struct {
		name             string
		num              time.Duration
		numSlow, denSlow int
		above            bool
	}{
		{"numerator 2x", 2 * unit, -1, -1, true},
		{"equal sides", unit, -1, -1, false},
		{"equal sides, one slow numerator round", unit, 2, -1, false},
		{"numerator 2x, one slow denominator round", 2 * unit, -1, 2, true},
	} {
		r := MinRatio(rounds, sleeper(tc.num, tc.numSlow), sleeper(unit, tc.denSlow))
		if (r > bound) != tc.above {
			t.Errorf("%s: ratio %.3f, want above %.1f: %v", tc.name, r, bound, tc.above)
		}
	}
}
