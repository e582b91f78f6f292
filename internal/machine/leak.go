package machine

import (
	"runtime"
	"time"
)

// SettledGoroutines waits up to d for the process's goroutine count to
// fall to n or below and returns the count it read last. A leak test
// reads runtime.NumGoroutine before it builds machines, closes them,
// and fails if the settled count stays above that reading: a transport
// or server that leaves a goroutine behind shows up without a
// dependency beyond the runtime.
func SettledGoroutines(n int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		got := runtime.NumGoroutine()
		if got <= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}
