package cluster

import (
	"sort"
	"sync"
	"time"
)

// State is a member's health as seen by one node's failure detector.
type State int

const (
	// Alive: heartbeats arriving within SuspectAfter.
	Alive State = iota
	// Suspect: silent past SuspectAfter but not yet written off. A
	// suspect stays routable — it may be a network blip — but a cluster
	// client's circuit breaker will stop hammering it if it is not.
	Suspect
	// Dead: silent past DeadAfter. Dead nodes leave the routing ring;
	// their hash ranges remap to survivors until they heartbeat again.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// Node is one member's public record.
type Node struct {
	ID       string    `json:"id"`
	Endpoint string    `json:"endpoint"`
	State    string    `json:"state"`
	LastSeen time.Time `json:"last_seen"`
}

// RegistryConfig tunes the failure detector.
type RegistryConfig struct {
	// Self is this node's ID; it is always reported Alive.
	Self string
	// SelfEndpoint is this node's advertised base URL.
	SelfEndpoint string
	// SuspectAfter is silence before alive -> suspect (default 2s).
	SuspectAfter time.Duration
	// DeadAfter is silence before suspect -> dead (default 5s). Must
	// exceed SuspectAfter; it is raised to 2x SuspectAfter if not.
	DeadAfter time.Duration
	// OnTransition, when set, observes every state change (metrics,
	// logging). Called without the registry lock held.
	OnTransition func(id string, from, to State)
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2 * time.Second
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	return c
}

// entry is one tracked member.
type entry struct {
	endpoint string
	state    State
	lastSeen time.Time
}

// Registry is a heartbeat-driven membership table: Heartbeat records a
// direct sign of life, Learn adds gossiped members without vouching for
// them, and Tick advances the alive -> suspect -> dead state machine on
// the configured timeouts. It is the cluster-level twin of the engine's
// dead-rank detection: detect silence, declare death, remap.
type Registry struct {
	cfg RegistryConfig

	mu    sync.Mutex
	peers map[string]*entry
}

// NewRegistry builds a registry containing only the self node.
func NewRegistry(cfg RegistryConfig) *Registry {
	return &Registry{cfg: cfg.withDefaults(), peers: make(map[string]*entry)}
}

// Heartbeat records a direct heartbeat from id at now. A heartbeat
// revives suspects and the dead — a node that was partitioned away and
// returns rejoins the ring on its first heartbeat.
func (r *Registry) Heartbeat(id, endpoint string, now time.Time) {
	if id == r.cfg.Self || id == "" {
		return
	}
	r.mu.Lock()
	e, ok := r.peers[id]
	if !ok {
		r.peers[id] = &entry{endpoint: endpoint, state: Alive, lastSeen: now}
		r.mu.Unlock()
		r.transition(id, Dead, Alive) // notify as a (re)join; from-state is nominal
		return
	}
	from := e.state
	if endpoint != "" {
		e.endpoint = endpoint
	}
	e.state = Alive
	e.lastSeen = now
	r.mu.Unlock()
	if from != Alive {
		r.transition(id, from, Alive)
	}
}

// Learn adds a gossiped member without treating the gossip as proof of
// life: an unknown node enters as Suspect with lastSeen = now, so it
// must heartbeat directly within DeadAfter-SuspectAfter or be declared
// dead. Known members are untouched — stale gossip cannot revive a
// node the local detector has already timed out.
func (r *Registry) Learn(id, endpoint string, now time.Time) {
	if id == r.cfg.Self || id == "" {
		return
	}
	r.mu.Lock()
	if _, ok := r.peers[id]; ok {
		r.mu.Unlock()
		return
	}
	r.peers[id] = &entry{endpoint: endpoint, state: Suspect, lastSeen: now}
	r.mu.Unlock()
}

// Tick applies the timeouts at now, firing OnTransition for every
// state change, and returns the number of transitions.
func (r *Registry) Tick(now time.Time) int {
	type change struct {
		id       string
		from, to State
	}
	var changes []change
	r.mu.Lock()
	for id, e := range r.peers {
		silent := now.Sub(e.lastSeen)
		want := e.state
		switch {
		case silent >= r.cfg.DeadAfter:
			want = Dead
		case silent >= r.cfg.SuspectAfter:
			if e.state != Dead {
				want = Suspect
			}
		}
		if want != e.state {
			changes = append(changes, change{id, e.state, want})
			e.state = want
		}
	}
	r.mu.Unlock()
	for _, c := range changes {
		r.transition(c.id, c.from, c.to)
	}
	return len(changes)
}

// Snapshot returns every member including self (always Alive), sorted
// by ID — the payload of GET /cluster/nodes.
func (r *Registry) Snapshot(now time.Time) []Node {
	r.mu.Lock()
	out := make([]Node, 0, len(r.peers)+1)
	out = append(out, Node{ID: r.cfg.Self, Endpoint: r.cfg.SelfEndpoint, State: Alive.String(), LastSeen: now})
	for id, e := range r.peers {
		out = append(out, Node{ID: id, Endpoint: e.endpoint, State: e.state.String(), LastSeen: e.lastSeen})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CountByState tallies members per state, self included.
func (r *Registry) CountByState() map[State]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[State]int{Alive: 1} // self
	for _, e := range r.peers {
		out[e.state]++
	}
	return out
}

func (r *Registry) transition(id string, from, to State) {
	if f := r.cfg.OnTransition; f != nil {
		f(id, from, to)
	}
}
