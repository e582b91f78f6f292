package server

import (
	"sync"
	"sync/atomic"
)

// cache is the server's one bounded cache: input arrays, their
// measured statistics, distribution plans and halo comm plans are all
// pure functions of their key and immutable once built, so concurrent
// jobs share entries freely. When full, an arbitrary entry is evicted
// (Go map iteration order), which is plenty for a working set of
// repeated request shapes.
type cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]V

	hits, misses atomic.Int64
}

func newCache[K comparable, V any](max int) *cache[K, V] {
	return &cache[K, V]{max: max, entries: make(map[K]V)}
}

// getOrFill returns the value cached under key, or fills, stores and
// returns it on a miss; hit reports which. fill runs outside the lock:
// it is the expensive part and must not serialise unrelated jobs. Two
// racing misses both fill and the last store wins — identical content
// either way. A failed fill stores nothing and counts as neither.
func (c *cache[K, V]) getOrFill(key K, fill func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	v, hit = c.entries[key]
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
		return v, true, nil
	}
	if v, err = fill(); err != nil {
		return v, false, err
	}
	c.misses.Add(1)
	c.mu.Lock()
	if len(c.entries) >= c.max {
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	c.entries[key] = v
	c.mu.Unlock()
	return v, false, nil
}
