package server

// Cluster-layer tests: gossip convergence between real HTTP daemons,
// the failure detector declaring a killed node dead, the client-job-ID
// dedup table, and the degraded /healthz protocol.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// clusterNode is one live test daemon: a Server with cluster config
// serving on a real listener (the advertise URL must be known before
// the server is built, so httptest alone cannot do this).
type clusterNode struct {
	s   *Server
	hs  *http.Server
	ln  net.Listener
	url string
}

// kill severs the node abruptly: hs.Close drops the listener and every
// established connection, so peers' pooled keep-alive heartbeats die
// too — the closest in-process stand-in for SIGKILL.
func (n *clusterNode) kill() { n.hs.Close() }

func (n *clusterNode) drain(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.s.Drain(ctx); err != nil {
		t.Errorf("drain %s: %v", n.s.cfg.Cluster.NodeID, err)
	}
	n.ln.Close()
}

// startCluster3 boots a 3-node cluster with fast failure-detector
// timings and full static peer lists.
func startCluster3(t *testing.T) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, 3)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		s := New(Config{
			QueueDepth: 16, Workers: 2,
			Cluster: ClusterConfig{
				NodeID:         fmt.Sprintf("n%d", i+1),
				Advertise:      urls[i],
				Peers:          peers,
				HeartbeatEvery: 25 * time.Millisecond,
				SuspectAfter:   100 * time.Millisecond,
				DeadAfter:      250 * time.Millisecond,
			},
		})
		hs := &http.Server{Handler: s}
		go hs.Serve(lns[i])
		nodes[i] = &clusterNode{s: s, hs: hs, ln: lns[i], url: urls[i]}
	}
	return nodes
}

func memberStates(t *testing.T, url string) map[string]string {
	t.Helper()
	resp, err := http.Get(url + "/cluster/nodes")
	if err != nil {
		t.Fatalf("GET /cluster/nodes: %v", err)
	}
	defer resp.Body.Close()
	var reply struct {
		Self  string `json:"self"`
		Nodes []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decoding nodes: %v", err)
	}
	out := make(map[string]string, len(reply.Nodes))
	for _, n := range reply.Nodes {
		out[n.ID] = n.State
	}
	return out
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

// TestClusterConvergesAndDetectsDeath is the heart of the failure
// model: three daemons gossip to full membership, then one dies
// (listener yanked, gossip stopped — the HTTP equivalent of SIGKILL)
// and the survivors walk it alive -> suspect -> dead, dropping it from
// the routable set so its hash ranges remap.
func TestClusterConvergesAndDetectsDeath(t *testing.T) {
	nodes := startCluster3(t)
	defer func() {
		for _, n := range nodes[:2] {
			n.drain(t)
		}
	}()

	waitFor(t, 10*time.Second, "3-node convergence", func() bool {
		for _, n := range nodes {
			st := memberStates(t, n.url)
			if len(st) != 3 {
				return false
			}
			for _, state := range st {
				if state != "alive" {
					return false
				}
			}
		}
		return true
	})

	// Kill n3: close its listener and silence its gossip. Close (not
	// Drain) on the dead node's server just stops its goroutines so the
	// test does not leak them; survivors only see the silence.
	nodes[2].kill()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := nodes[2].s.Drain(ctx); err != nil {
		t.Fatalf("stopping killed node's internals: %v", err)
	}

	waitFor(t, 10*time.Second, "survivors declaring n3 dead", func() bool {
		for _, n := range nodes[:2] {
			if memberStates(t, n.url)["n3"] != "dead" {
				return false
			}
		}
		return true
	})

	// The detector's metrics recorded the walk: suspect and dead
	// transitions, and a dead-node gauge of 1.
	m := scrapeURL(t, nodes[0].url)
	if got := m[`sparsedistd_cluster_transitions_total{to="dead"}`]; got < 1 {
		t.Errorf("dead transitions = %g, want >= 1", got)
	}
	if got := m[`sparsedistd_cluster_nodes{state="dead"}`]; got != 1 {
		t.Errorf("dead node gauge = %g, want 1", got)
	}
	if got := m[`sparsedistd_cluster_heartbeats_sent_total`]; got < 3 {
		t.Errorf("heartbeats sent = %g, want a few", got)
	}
}

func scrapeURL(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	m, err := parseMetricsText(resp)
	if err != nil {
		t.Fatalf("parsing metrics: %v", err)
	}
	return m
}

// TestSubmitDedupByClientID: a resubmission with the same client job ID
// maps to the original job — no duplicate execution — and is visible in
// the dedup counter.
func TestSubmitDedupByClientID(t *testing.T) {
	s := New(Config{QueueDepth: 8, Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := `{"n":32,"procs":2,"client_id":"cli-1"}`
	id1 := decodeID(t, postJob(t, ts, spec))
	waitTerminal(t, s, id1, 10*time.Second)

	resp := postJob(t, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit status = %d, want 202", resp.StatusCode)
	}
	var out struct {
		ID      string `json:"id"`
		State   string `json:"state"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding resubmit response: %v", err)
	}
	if out.ID != id1 || !out.Deduped {
		t.Fatalf("resubmit = %+v, want original id %s with deduped=true", out, id1)
	}
	if out.State != string(StateDone) {
		t.Errorf("resubmit state = %q, want done (the original already ran)", out.State)
	}

	// A different client ID is a different job.
	id2 := decodeID(t, postJob(t, ts, `{"n":32,"procs":2,"client_id":"cli-2"}`))
	if id2 == id1 {
		t.Fatalf("distinct client IDs shared job id %s", id1)
	}

	m := scrape(t, ts)
	if got := m["sparsedistd_dedup_hits_total"]; got != 1 {
		t.Errorf("dedup hits = %g, want 1", got)
	}
	if got := m["sparsedistd_jobs_submitted_total"]; got != 2 {
		t.Errorf("submitted = %g, want 2 (the dedup hit must not enqueue)", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDedupEntryEvictedWithJob: the dedup table is bounded by the job
// history — evicting a job frees its client ID for a (re-running)
// resubmit rather than answering from a forgotten record.
func TestDedupEntryEvictedWithJob(t *testing.T) {
	s := newServer(Config{QueueDepth: 8, Workers: 1, MaxJobHistory: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := decodeID(t, postJob(t, ts, `{"n":32,"procs":2,"client_id":"cli-evict"}`))
	s.start()
	waitTerminal(t, s, first, 10*time.Second)
	// Submitting a second job evicts the first (history cap 1)...
	second := decodeID(t, postJob(t, ts, `{"n":32,"procs":2}`))
	if _, ok := s.lookup(first); ok {
		t.Fatalf("job %s should have been evicted", first)
	}
	// ...so its client ID submits fresh instead of deduping.
	third := decodeID(t, postJob(t, ts, `{"n":32,"procs":2,"client_id":"cli-evict"}`))
	if third == first || third == second {
		t.Fatalf("post-eviction resubmit reused id %s", third)
	}
	if got := scrape(t, ts)["sparsedistd_dedup_hits_total"]; got != 0 {
		t.Errorf("dedup hits = %g, want 0 after eviction", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestHealthzDegradedStates: /healthz speaks JSON and takes the node
// out of rotation (503) when the queue is saturated, not only while
// draining.
func TestHealthzDegradedStates(t *testing.T) {
	s := newServer(Config{QueueDepth: 2, Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	health := func() (int, HealthReply) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("healthz Content-Type = %q, want JSON", ct)
		}
		var hr HealthReply
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatalf("decoding healthz: %v", err)
		}
		return resp.StatusCode, hr
	}

	code, hr := health()
	if code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("idle healthz = %d %q, want 200 ok", code, hr.Status)
	}

	// Fill the queue (no workers running): saturated -> 503.
	postJob(t, ts, `{"n":32,"procs":2}`).Body.Close()
	postJob(t, ts, `{"n":32,"procs":2}`).Body.Close()
	code, hr = health()
	if code != http.StatusServiceUnavailable || hr.Status != "saturated" {
		t.Fatalf("saturated healthz = %d %q, want 503 saturated", code, hr.Status)
	}
	if hr.QueueDepth != 2 || hr.QueueCapacity != 2 {
		t.Errorf("saturated healthz queue = %d/%d, want 2/2", hr.QueueDepth, hr.QueueCapacity)
	}

	// Drain the backlog: healthy again, then draining -> 503.
	s.start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, hr = health()
	if code != http.StatusServiceUnavailable || hr.Status != "draining" {
		t.Fatalf("draining healthz = %d %q, want 503 draining", code, hr.Status)
	}
}
