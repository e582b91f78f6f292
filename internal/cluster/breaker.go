package cluster

import (
	"sync"
	"time"
)

// BreakerConfig tunes one node's circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the breaker
	// open (default 3).
	Threshold int
	// Cooldown is how long an open breaker refuses traffic before
	// letting one half-open probe through (default 2s).
	Cooldown time.Duration
	// Now is the clock (test seam; default time.Now).
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a per-node circuit breaker: closed (traffic flows) until
// Threshold consecutive failures trip it open; open refuses traffic
// for Cooldown, then admits exactly one half-open probe at a time —
// probe success closes the breaker, probe failure re-opens it for
// another cooldown. A cluster client keeps one per member so a dead
// node costs one failed call per cooldown instead of one per request.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	failures int
	open     bool
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a call to this node may proceed. While open it
// returns false until the cooldown elapses, then true exactly once (the
// half-open probe) until that probe settles via Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing || b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
		return false
	}
	b.probing = true
	return true
}

// Success records a successful call: the breaker closes and the
// consecutive-failure count resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.open = false
	b.probing = false
}

// Failure records a failed call, tripping the breaker at the threshold
// and re-opening it (restarting the cooldown) on a failed probe.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.probing || (!b.open && b.failures >= b.cfg.Threshold) {
		b.open = true
		b.openedAt = b.cfg.Now()
		b.probing = false
	}
}
