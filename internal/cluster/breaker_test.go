package cluster

import (
	"testing"
	"time"
)

func clockAt(t *time.Time) func() time.Time {
	return func() time.Time { return *t }
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second, Now: clockAt(&now)})

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Failure()
	}
	if !b.Allow() {
		t.Fatal("breaker open below threshold")
	}
	// A success resets the consecutive count.
	b.Success()
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("breaker open after reset + 2 failures")
	}
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker allowed a call inside the cooldown")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second, Now: clockAt(&now)})
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker allowed traffic immediately")
	}

	now = now.Add(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.Allow() {
		t.Fatal("breaker allowed a second concurrent probe")
	}

	// Failed probe: re-open, full cooldown again.
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker allowed traffic right after a failed probe")
	}
	now = now.Add(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused probe after second cooldown")
	}
	// Successful probe: closed, traffic flows.
	b.Success()
	if !b.Allow() || !b.Allow() {
		t.Fatal("closed breaker refused traffic")
	}
}
