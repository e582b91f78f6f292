package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicLookup(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("plan-%d", i)
		first := r.LookupN(key, 1)[0]
		if first == "" {
			t.Fatalf("Lookup(%q) on populated ring returned empty", key)
		}
		for rep := 0; rep < 5; rep++ {
			if got := r.LookupN(key, 1)[0]; got != first {
				t.Fatalf("Lookup(%q) not stable: %q then %q", key, first, got)
			}
		}
	}
}

func TestRingSeparateInstancesAgree(t *testing.T) {
	a, b := NewRing(0), NewRing(0)
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		a.Add(n)
	}
	// Insertion order must not matter: the client and every server
	// build their rings independently and must agree on placement.
	for _, n := range []string{"n4", "n2", "n1", "n3"} {
		b.Add(n)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if ga, gb := a.LookupN(key, 1)[0], b.LookupN(key, 1)[0]; ga != gb {
			t.Fatalf("rings disagree on %q: %q vs %q", key, ga, gb)
		}
	}
}

func TestRingLookupNDistinctPreference(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	got := r.LookupN("some-key", 5)
	if len(got) != 3 {
		t.Fatalf("LookupN(5) on 3 nodes = %v, want 3 distinct", got)
	}
	seen := map[string]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatalf("LookupN returned duplicate %q in %v", n, got)
		}
		seen[n] = true
	}
	if owner := r.LookupN("some-key", 1)[0]; got[0] != owner {
		t.Errorf("LookupN(5)[0] = %q, LookupN(1)[0] = %q; preference head must be the owner", got[0], owner)
	}
}

func TestRingEmptyAndBalance(t *testing.T) {
	r := NewRing(0)
	if got := r.LookupN("k", 3); got != nil {
		t.Fatalf("empty ring LookupN = %v, want nil", got)
	}
	for _, n := range []string{"a", "b", "c", "d"} {
		r.Add(n)
	}
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.LookupN(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	for n, c := range counts {
		// With 64 vnodes the split is rough, not perfect; a node owning
		// under 10% of the keyspace means the vnode spread is broken.
		if c < keys/10 {
			t.Errorf("node %s owns %d/%d keys; distribution badly skewed: %v", n, c, keys, counts)
		}
	}
}
