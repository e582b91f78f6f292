package machine

import "sync/atomic"

// Tag allocation. Fixed, hand-picked tags served the single-session
// world, but two distributions sharing one machine collide as soon as
// both default to the same data tag — or when one run's per-part tags
// (base+k) overrun another's assignment tag (base+p). AllocTags hands
// every session its own disjoint range instead, so concurrent SPMD
// executions multiplex one machine safely.
//
// Allocated tags start at allocTagBase; hand-picked tags
// (package-internal constants) must stay below it, and
// collective/control tags remain negative.

// allocTagBase is the first tag AllocTags ever returns.
const allocTagBase = 1 << 16

// AllocTags atomically reserves n consecutive message tags and returns
// the first. The range [base, base+n) is never handed out again for
// the machine's lifetime, so holders need not release it.
func (m *Machine) AllocTags(n int) int {
	if n < 1 {
		n = 1
	}
	return int(atomic.AddInt64(&m.nextTag, int64(n))) - n
}
