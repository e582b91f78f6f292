package server

import (
	"sync"
	"sync/atomic"
)

// cache is the server's one bounded cache: input arrays, their
// measured statistics, distribution plans and halo comm plans are all
// pure functions of their key and immutable once built, so concurrent
// jobs share entries freely. The bound is a budget in the units of the
// cache's size function — bytes for arrays and comm plans, one per
// entry for statistics and plans. A store that would pass the budget
// first evicts arbitrary entries (Go map iteration order), which is
// plenty for a working set of repeated request shapes; a value larger
// than the whole budget is returned to its caller but never stored.
type cache[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	size    func(V) int64
	entries map[K]V
	sizes   map[K]int64 // size of each entry as stored
	bytes   int64       // sum of sizes
	flights map[K]*flight[V]

	hits, misses, evictions, uncached atomic.Int64
}

// flight is one fill in progress. Its waiters block on wg and then read
// v and ok, which the filling goroutine writes before wg.Done; ok stays
// false when the fill failed or panicked.
type flight[V any] struct {
	wg sync.WaitGroup
	v  V
	ok bool
}

func newCache[K comparable, V any](budget int64, size func(V) int64) *cache[K, V] {
	return &cache[K, V]{budget: budget, size: size,
		entries: make(map[K]V), sizes: make(map[K]int64), flights: make(map[K]*flight[V])}
}

// one sizes every entry 1, which makes a budget an entry count.
func one[V any](V) int64 { return 1 }

// getOrFill returns the value cached under key, or fills, stores and
// returns it on a miss; hit reports that this call ran no fill. fill
// runs outside the lock: it is the expensive part and must not
// serialise unrelated jobs. Concurrent misses on one key run one fill —
// the first caller's — and the rest wait and take its value as a hit.
// A fill that fails stores nothing and counts as neither hit nor miss,
// and its error stays its caller's: the fill runs under the filling
// job's context, so a waiter whose leader was cancelled fills for
// itself.
func (c *cache[K, V]) getOrFill(key K, fill func() (V, error)) (v V, hit bool, err error) {
	for {
		c.mu.Lock()
		if v, ok := c.entries[key]; ok {
			c.mu.Unlock()
			c.hits.Add(1)
			return v, true, nil
		}
		f := c.flights[key]
		if f == nil {
			break // still holding the lock: this call leads the fill
		}
		c.mu.Unlock()
		f.wg.Wait()
		if f.ok {
			c.hits.Add(1)
			return f.v, true, nil
		}
	}
	f := &flight[V]{}
	f.wg.Add(1)
	c.flights[key] = f
	c.mu.Unlock()
	defer c.land(key, f)
	v, err = fill()
	f.v, f.ok = v, err == nil
	return v, false, err
}

// land ends the flight: a successful fill is counted and stored, then
// the waiters are released.
func (c *cache[K, V]) land(key K, f *flight[V]) {
	c.mu.Lock()
	delete(c.flights, key)
	if f.ok {
		c.misses.Add(1)
		c.store(key, f.v)
	}
	c.mu.Unlock()
	f.wg.Done()
}

// store files v under key, evicting until it fits the budget. A value
// over the whole budget is not stored. Called with c.mu held.
func (c *cache[K, V]) store(key K, v V) {
	n := c.size(v)
	if n > c.budget {
		c.uncached.Add(1)
		return
	}
	// A key already present is replaced; it makes room for itself and
	// costs no other entry its place.
	c.drop(key)
	for k := range c.entries {
		if c.bytes+n <= c.budget {
			break
		}
		c.drop(k)
		c.evictions.Add(1)
	}
	c.entries[key] = v
	c.sizes[key] = n
	c.bytes += n
}

// drop removes key and releases its size. Called with c.mu held.
func (c *cache[K, V]) drop(key K) {
	c.bytes -= c.sizes[key]
	delete(c.entries, key)
	delete(c.sizes, key)
}

// snapshot samples the cache's counters and occupancy for /metrics.
func (c *cache[K, V]) snapshot(name string) cacheSnapshot {
	c.mu.Lock()
	bytes := c.bytes
	c.mu.Unlock()
	return cacheSnapshot{name: name, bytes: bytes, budget: c.budget,
		hits: c.hits.Load(), misses: c.misses.Load(),
		evictions: c.evictions.Load(), uncached: c.uncached.Load()}
}
