package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/costmodel"
)

// checkCache holds a cache to its books: every entry has a size, the
// sizes sum to what the cache says it holds, and that fits the budget.
func checkCache[K comparable, V any](c *cache[K, V]) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for k := range c.entries {
		n, ok := c.sizes[k]
		if !ok {
			return fmt.Errorf("entry %v has no size", k)
		}
		sum += n
	}
	if len(c.sizes) != len(c.entries) {
		return fmt.Errorf("%d sizes for %d entries", len(c.sizes), len(c.entries))
	}
	if sum != c.bytes || c.bytes > c.budget {
		return fmt.Errorf("entries sum to %d, cache says %d, budget %d", sum, c.bytes, c.budget)
	}
	return nil
}

func TestCacheByteBudget(t *testing.T) {
	c := newCache[string](10, func(v int64) int64 { return v })
	fill := func(v int64) func() (int64, error) { return func() (int64, error) { return v, nil } }
	for _, k := range []string{"a", "b", "c"} {
		c.getOrFill(k, fill(3))
	}
	if len(c.entries) != 3 || c.bytes != 9 {
		t.Fatalf("three 3-byte entries: %d held, %d bytes", len(c.entries), c.bytes)
	}
	// 9 + 4 > 10: the store evicts until it fits, and only that far.
	c.getOrFill("d", fill(4))
	if _, ok := c.entries["d"]; !ok || len(c.entries) != 3 || c.evictions.Load() != 1 {
		t.Errorf("after a 4-byte store: entries %v, %d evictions; want d and two others, 1 eviction",
			c.entries, c.evictions.Load())
	}
	// Over the whole budget: served, counted, not stored, nothing evicted.
	before := maps.Clone(c.entries)
	if v, hit, err := c.getOrFill("big", fill(11)); v != 11 || hit || err != nil {
		t.Errorf("oversize fill returned %d, %v, %v", v, hit, err)
	}
	if !maps.Equal(c.entries, before) || c.uncached.Load() != 1 || c.misses.Load() != 5 {
		t.Errorf("oversize fill changed the cache: %v (was %v), uncached %d, misses %d",
			c.entries, before, c.uncached.Load(), c.misses.Load())
	}
	// A key already present is replaced in place, evicting no other.
	c.mu.Lock()
	c.store("d", 2)
	c.mu.Unlock()
	if len(c.entries) != 3 || c.evictions.Load() != 1 || c.entries["d"] != 2 {
		t.Errorf("re-storing d: entries %v, %d evictions", c.entries, c.evictions.Load())
	}
	if err := checkCache(c); err != nil {
		t.Error(err)
	}
}

// TestCacheSingleFlight: concurrent misses on one key run one fill, and
// every caller gets its value.
func TestCacheSingleFlight(t *testing.T) {
	c := newCache[int](4, one[*int])
	const callers = 16
	var fills atomic.Int32
	release := make(chan struct{})
	want := new(int)
	var started, done sync.WaitGroup
	got := make([]*int, callers)
	hits := make([]bool, callers)
	for i := range callers {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			started.Done()
			v, hit, err := c.getOrFill(1, func() (*int, error) {
				fills.Add(1)
				<-release
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i], hits[i] = v, hit
		}()
	}
	started.Wait()
	time.Sleep(20 * time.Millisecond) // let the callers reach the flight
	close(release)
	done.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("%d callers ran %d fills, want 1", callers, n)
	}
	misses := 0
	for i := range got {
		if got[i] != want {
			t.Errorf("caller %d got another value", i)
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 || c.misses.Load() != 1 || c.hits.Load() != callers-1 {
		t.Errorf("%d callers report a miss, counters %d misses / %d hits; want 1 / %d",
			misses, c.misses.Load(), c.hits.Load(), callers-1)
	}
}

// TestCacheCancelledLeaderDoesNotFailWaiters: the leader's fill fails
// with its own job's cancellation; a caller waiting on it fills for
// itself and succeeds, and only its value is stored.
func TestCacheCancelledLeaderDoesNotFailWaiters(t *testing.T) {
	c := newCache[int](4, one[string])
	entered, release := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.getOrFill(1, func() (string, error) {
			close(entered)
			<-release
			return "", context.Canceled
		})
		leaderErr <- err
	}()
	<-entered
	waiter := make(chan string, 1)
	go func() {
		v, _, err := c.getOrFill(1, func() (string, error) { return "waiter", nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- v
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter reach the flight
	close(release)
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader: %v, want its own cancellation", err)
	}
	if v := <-waiter; v != "waiter" {
		t.Errorf("waiter got %q", v)
	}
	if v, ok := c.entries[1]; !ok || v != "waiter" {
		t.Errorf("stored %q (present %v), want the waiter's value", v, ok)
	}
}

// TestCacheFillPanicReleasesWaiters: a fill that panics ends its flight,
// so a waiter fills for itself and the key stays fillable.
func TestCacheFillPanicReleasesWaiters(t *testing.T) {
	c := newCache[int](4, one[string])
	entered, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.getOrFill(1, func() (string, error) {
			close(entered)
			<-release
			panic("fill")
		})
	}()
	<-entered
	waiter := make(chan string, 1)
	go func() {
		v, _, _ := c.getOrFill(1, func() (string, error) { return "waiter", nil })
		waiter <- v
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case v := <-waiter:
		if v != "waiter" {
			t.Errorf("waiter got %q", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after its leader panicked")
	}
}

// TestCacheAllocs: serve_warm is all hits, so a hit allocates nothing —
// through the cache and through arrayFor — and a miss that evicts adds
// one allocation, its flight, to what its fill allocates.
func TestCacheAllocs(t *testing.T) {
	c := newCache[int](1, one[*int])
	v := new(int)
	fill := func() (*int, error) { return v, nil }
	c.getOrFill(0, fill)
	if a := testing.AllocsPerRun(100, func() { c.getOrFill(0, fill) }); a != 0 {
		t.Errorf("hit: %v allocs, want 0", a)
	}
	key := 0
	if a := testing.AllocsPerRun(100, func() { key++; c.getOrFill(key, fill) }); a > 1 {
		t.Errorf("miss: %v allocs, want <= 1", a)
	}

	s := newServer(Config{})
	spec := JobSpec{N: 16}.withDefaults()
	s.arrayFor(spec)
	if a := testing.AllocsPerRun(100, func() { s.arrayFor(spec) }); a != 0 {
		t.Errorf("arrayFor hit: %v allocs, want 0", a)
	}
}

// TestCacheBytesBoundedAtTheDoor posts jobs through handleSubmit whose
// arrays together pass the array cache's budget: it never holds more.
// A job whose array alone is over the budget is served and leaves the
// cache as it was.
func TestCacheBytesBoundedAtTheDoor(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	run := func(body string) {
		t.Helper()
		if st := waitTerminal(t, s, decodeID(t, postJob(t, ts, body)), 60*time.Second); st.State != StateDone {
			t.Fatalf("%s: state %s, error %q", body, st.State, st.Error)
		}
	}

	const n = 1500 // 18 MB an array: two pass the budget
	if 2*8*n*n <= arrayCacheBytes || 8*n*n > arrayCacheBytes {
		t.Fatalf("n = %d no longer tests the %d-byte budget", n, arrayCacheBytes)
	}
	for seed := 1; seed <= 3; seed++ {
		run(fmt.Sprintf(`{"n":%d,"seed":%d,"procs":2}`, n, seed))
		if err := checkCache(s.arrays); err != nil {
			t.Fatalf("after seed %d: %v", seed, err)
		}
	}
	if ev := s.arrays.evictions.Load(); ev != 2 {
		t.Errorf("%d evictions after three %d-byte arrays, want 2", ev, 8*n*n)
	}

	const over = 2100 // 35 MB: over the budget alone
	s.arrays.mu.Lock()
	before, bytes := maps.Clone(s.arrays.entries), s.arrays.bytes
	s.arrays.mu.Unlock()
	run(fmt.Sprintf(`{"n":%d,"procs":2}`, over))
	s.arrays.mu.Lock()
	after, bytesAfter := maps.Clone(s.arrays.entries), s.arrays.bytes
	s.arrays.mu.Unlock()
	if !maps.Equal(before, after) || bytes != bytesAfter {
		t.Errorf("an over-budget array changed the cache: %d entries / %d bytes -> %d / %d",
			len(before), bytes, len(after), bytesAfter)
	}
	m := scrape(t, ts)
	if got := m[`sparsedistd_cache_uncached_total{cache="arrays"}`]; got != 1 {
		t.Errorf("uncached arrays = %g, want 1", got)
	}
	if got, budget := m[`sparsedistd_cache_bytes{cache="arrays"}`], m[`sparsedistd_cache_budget_bytes{cache="arrays"}`]; got != float64(bytes) || budget != arrayCacheBytes {
		t.Errorf("/metrics arrays: %g of %g bytes, want %d of %d", got, budget, bytes, arrayCacheBytes)
	}
}

// TestServeWarmWorkingSetFits: serve_warm's working set — one n = 400
// array and eight comm plans of it, one per scheme × partition × method
// it serves — stays within the byte budgets, so every job after the
// first round hits.
func TestServeWarmWorkingSetFits(t *testing.T) {
	s := newServer(Config{Workers: 1})
	defer s.pool.close()
	type plan struct{ scheme, partition, method string }
	for _, p := range []plan{
		{"ED", "row", "CRS"}, {"ED", "mesh", "CRS"}, {"CFS", "row", "CRS"}, {"CFS", "mesh", "CRS"},
		{"SFC", "row", "CRS"}, {"SFC", "mesh", "CRS"}, {"ED", "col", "CRS"}, {"ED", "col", "CCS"},
	} {
		spec := JobSpec{N: 400, Ratio: 0.1, Seed: 1001, Scheme: p.scheme, Partition: p.partition,
			Method: p.method, Procs: 4, Op: "spmv"}.withDefaults()
		if st := runSpec(s, spec); st.State != StateDone {
			t.Fatalf("%+v: %s %q", p, st.State, st.Error)
		}
	}
	s.opPlans.mu.Lock()
	defer s.opPlans.mu.Unlock()
	if len(s.opPlans.entries) != 8 || s.arrays.evictions.Load() != 0 || s.opPlans.evictions.Load() != 0 {
		t.Fatalf("%d comm plans held, %d/%d evictions; want 8 and none",
			len(s.opPlans.entries), s.arrays.evictions.Load(), s.opPlans.evictions.Load())
	}
	for k, n := range s.opPlans.sizes {
		if n < 200<<10 || n > 512<<10 {
			t.Errorf("comm plan %s/%s/%s estimated at %d bytes, want 0.2–0.5 MiB", k.scheme, k.partition, k.method, n)
		}
	}
}

// TestEvictionUnderTheOracle runs FuzzDiffJob's seed corpus through a
// server whose caches hold one to three entries, so entries are evicted
// inside every sequence. Every job must still equal core.Distribute
// plus its op, each repeated spec must find the entry its first run
// stored, every cache's books must balance after every job, and every
// distribution the op-plan cache holds must verify.
func TestEvictionUnderTheOracle(t *testing.T) {
	var corpus [][]byte
	for _, scheme := range []string{"ED", "CFS", "SFC"} {
		for _, part := range []string{"row", "col", "mesh", "cyclic-row"} {
			for _, method := range fuzzMethods {
				for _, op := range []string{"spmv", "jacobi", "spgemm"} {
					one := encodeFuzzJob(scheme, part, method, op, false, 40, 4, 1)
					corpus = append(corpus, append(one, one...))
				}
			}
		}
	}
	corpus = append(corpus, append(encodeFuzzJob("auto", "", "CRS", "spmv", false, 48, 4, 2),
		encodeFuzzJob("ED", "balanced-row", "JDS", "jacobi", true, 33, 3, 2)...))

	s := newServer(Config{Workers: 1})
	defer s.pool.close()
	// The corpus alternates a plain and a diagonally dominant n = 40
	// array: room for one and a half makes every switch evict.
	s.arrays = newCache[arrayKey](8*40*40*3/2, denseBytes)
	s.stats = newCache[arrayKey](2, one[costmodel.ArrayStats])
	s.plans = newCache[planKey](2, one[*plan])
	sizeOpPlans := true // on the first comm plan, to about two of them
	books := func() error {
		return errors.Join(checkCache(s.arrays), checkCache(s.stats), checkCache(s.plans), checkCache(s.opPlans))
	}

	for i, data := range corpus {
		var prev JobSpec
		for ; len(data) >= fuzzJobBytes; data = data[fuzzJobBytes:] {
			spec := decodeFuzzJob(data[:fuzzJobBytes]).withDefaults()
			if spec.validate(s.cfg.Limits) != nil {
				continue
			}
			st := runSpec(s, spec)
			want, err := oracleCounts(spec, s.cfg, st.Result)
			switch {
			case st.State != StateDone && err == nil:
				t.Fatalf("input %d %+v: server %s (%q), oracle ran", i, spec, st.State, st.Error)
			case st.State != StateDone:
				continue
			case err != nil:
				t.Fatalf("input %d %+v: server done, oracle failed: %v", i, spec, err)
			}
			if got := countsOf(st.Result); got != want {
				t.Fatalf("input %d %+v (op-plan hit %t):\n got %+v\nwant %+v", i, spec, st.Result.OpPlanCacheHit, got, want)
			}
			if spec == prev && spec.Op != "" && !spec.Check && !st.Result.OpPlanCacheHit {
				t.Errorf("input %d %+v: the repeat missed the comm plan its first run stored", i, spec)
			}
			if sizeOpPlans && spec.Op != "" {
				s.opPlans.budget = s.opPlans.bytes * 5 / 2
				sizeOpPlans = false
			}
			if err := books(); err != nil {
				t.Fatalf("input %d %+v: %v", i, spec, err)
			}
			prev = spec
		}
		if err := verifyCachedDistributions(s); err != nil {
			t.Fatal(err)
		}
	}
	for name, ev := range map[string]int64{"arrays": s.arrays.evictions.Load(),
		"plans": s.plans.evictions.Load(), "op_plans": s.opPlans.evictions.Load()} {
		if ev == 0 {
			t.Errorf("the %s cache evicted nothing: the test no longer tests eviction", name)
		}
	}
}
