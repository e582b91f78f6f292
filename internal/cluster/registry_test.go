package cluster

import (
	"testing"
	"time"
)

func testRegistry(transitions *[]string) *Registry {
	return NewRegistry(RegistryConfig{
		Self:         "self",
		SelfEndpoint: "http://self",
		SuspectAfter: 2 * time.Second,
		DeadAfter:    5 * time.Second,
		OnTransition: func(id string, from, to State) {
			if transitions != nil {
				*transitions = append(*transitions, id+":"+from.String()+">"+to.String())
			}
		},
	})
}

func stateOf(t *testing.T, r *Registry, id string, now time.Time) string {
	t.Helper()
	for _, n := range r.Snapshot(now) {
		if n.ID == id {
			return n.State
		}
	}
	t.Fatalf("node %s not in snapshot", id)
	return ""
}

func TestRegistryAliveSuspectDead(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := testRegistry(nil)
	r.Heartbeat("n1", "http://n1", t0)

	if got := stateOf(t, r, "n1", t0); got != "alive" {
		t.Fatalf("after heartbeat: %s, want alive", got)
	}
	r.Tick(t0.Add(1 * time.Second))
	if got := stateOf(t, r, "n1", t0); got != "alive" {
		t.Fatalf("silent 1s (< suspect): %s, want alive", got)
	}
	r.Tick(t0.Add(3 * time.Second))
	if got := stateOf(t, r, "n1", t0); got != "suspect" {
		t.Fatalf("silent 3s (> suspect): %s, want suspect", got)
	}
	r.Tick(t0.Add(6 * time.Second))
	if got := stateOf(t, r, "n1", t0); got != "dead" {
		t.Fatalf("silent 6s (> dead): %s, want dead", got)
	}

	// A returning heartbeat revives it.
	r.Heartbeat("n1", "http://n1", t0.Add(7*time.Second))
	if got := stateOf(t, r, "n1", t0); got != "alive" {
		t.Fatalf("after revival heartbeat: %s, want alive", got)
	}
}

func TestRegistryTransitionCallback(t *testing.T) {
	var trans []string
	t0 := time.Unix(1000, 0)
	r := testRegistry(&trans)
	r.Heartbeat("n1", "http://n1", t0)
	r.Tick(t0.Add(3 * time.Second))
	r.Tick(t0.Add(6 * time.Second))
	want := []string{"n1:dead>alive", "n1:alive>suspect", "n1:suspect>dead"}
	if len(trans) != len(want) {
		t.Fatalf("transitions = %v, want %v", trans, want)
	}
	for i := range want {
		if trans[i] != want[i] {
			t.Fatalf("transition[%d] = %q, want %q (all: %v)", i, trans[i], want[i], trans)
		}
	}
}

func TestRegistryLearnIsNotProofOfLife(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := testRegistry(nil)
	r.Learn("gossiped", "http://g", t0)
	if got := stateOf(t, r, "gossiped", t0); got != "suspect" {
		t.Fatalf("learned node state = %s, want suspect", got)
	}
	// It never heartbeats directly: declared dead on the timeout.
	r.Tick(t0.Add(6 * time.Second))
	if got := stateOf(t, r, "gossiped", t0); got != "dead" {
		t.Fatalf("learned-but-silent node = %s, want dead", got)
	}

	// Stale gossip must not revive a node the detector timed out.
	r.Learn("gossiped", "http://g", t0.Add(7*time.Second))
	if got := stateOf(t, r, "gossiped", t0); got != "dead" {
		t.Fatalf("gossip revived a dead node: %s", got)
	}
}

func TestRegistrySelfIgnoredAndCounts(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := testRegistry(nil)
	r.Heartbeat("self", "http://elsewhere", t0) // must be ignored
	r.Heartbeat("n1", "http://n1", t0)
	r.Learn("n2", "http://n2", t0)

	counts := r.CountByState()
	if counts[Alive] != 2 || counts[Suspect] != 1 {
		t.Fatalf("counts = %v, want 2 alive (self+n1), 1 suspect", counts)
	}
	endpoints := map[string]string{}
	for _, n := range r.Snapshot(t0) {
		endpoints[n.ID] = n.Endpoint
	}
	if got := endpoints["self"]; got != "http://self" {
		t.Fatalf("self endpoint = %q, want the configured one", got)
	}
	if got := endpoints["n2"]; got != "http://n2" {
		t.Fatalf("n2 endpoint = %q", got)
	}
	if len(endpoints) != 3 {
		t.Fatalf("snapshot endpoints = %v, want self, n1 and n2", endpoints)
	}
}
