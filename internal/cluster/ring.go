// Package cluster is the membership and routing layer that turns N
// independent sparsedistd processes into one fault-tolerant service.
// It is deliberately transport-free: the Ring answers "which node owns
// this key", the Registry answers "which nodes are alive", and the
// Breaker answers "should I even try this node" — the HTTP glue lives
// in internal/server (gossip endpoints) and internal/client (failover).
//
// The design mirrors the dead-rank degradation protocol of the
// distribution engine one level up: where partition.Remap reassigns a
// dead rank's tiles to survivors, the Ring reassigns a dead node's hash
// ranges — and, like there, only the dead member's share moves.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// defaultVnodes is the number of virtual nodes each member contributes
// to the ring. More vnodes smooth the key distribution and shrink the
// slice of keyspace that moves when membership changes.
const defaultVnodes = 64

// Ring is a consistent-hash ring over node IDs. Keys (plan-cache
// routing keys) map to the first vnode clockwise from their hash, so
// repeated submissions of the same key land on the same node — the one
// whose plan/array caches are already warm — and removing a node moves
// only that node's ranges to its clockwise successors.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	hashes []uint64          // sorted vnode positions
	owner  map[uint64]string // vnode position -> node ID
	nodes  map[string]bool
}

// NewRing builds an empty ring. vnodes <= 0 picks the default (64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	return &Ring{
		vnodes: vnodes,
		owner:  make(map[uint64]string),
		nodes:  make(map[string]bool),
	}
}

// Add inserts a node's vnodes. Adding a present node is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		h := hashKey(fmt.Sprintf("%s#%d", node, i))
		// On the (astronomically unlikely) collision the earlier owner
		// keeps the slot; the node still owns its other vnodes.
		if _, taken := r.owner[h]; taken {
			continue
		}
		r.owner[h] = node
		r.hashes = append(r.hashes, h)
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// LookupN returns up to n distinct nodes in preference order for key:
// the owner first, then successive clockwise distinct nodes — the
// failover replica list a cluster client walks when the owner is down.
func (r *Ring) LookupN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n < 1 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		node := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// hashKey is FNV-1a 64 finished with a splitmix64 mix. Raw FNV-1a on
// short, similar strings ("n1#0", "n1#1", ...) clusters in a few hash
// ranges and skews the ring badly; the finalizer restores avalanche.
// It must stay stable across processes — the client and every server
// agree on placement by recomputing it, never by exchanging it.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
