package server

// Single-node idempotency and health tests: the client-job-ID dedup
// table (bounded by the job history, refusing a reused ID with another
// spec) and the degraded /healthz protocol.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

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

// TestDedupRejectsDifferentSpec: a client job ID names one spec. A
// resubmit that spells the same spec differently (a default written
// out) is still the same job, but the ID reused with another spec gets
// 409 Conflict instead of the held job, whose result would describe a
// different array.
func TestDedupRejectsDifferentSpec(t *testing.T) {
	s := New(Config{QueueDepth: 8, Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	id := decodeID(t, postJob(t, ts, `{"n":32,"procs":2,"client_id":"a"}`))
	waitTerminal(t, s, id, 10*time.Second)

	if same := decodeID(t, postJob(t, ts, `{"n":32,"procs":2,"scheme":"ED","client_id":"a"}`)); same != id {
		t.Fatalf("resubmit with a default spelled out got job %s, want %s", same, id)
	}

	resp := postJob(t, ts, `{"n":64,"procs":2,"scheme":"SFC","client_id":"a"}`)
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding conflict response: %v", err)
	}
	if resp.StatusCode != http.StatusConflict || out.ID != "" {
		t.Fatalf("reused client_id with another spec = %d %+v, want 409 with no job id", resp.StatusCode, out)
	}
	if !strings.Contains(out.Error, `"a"`) {
		t.Errorf("conflict error %q does not name the client_id", out.Error)
	}

	m := scrape(t, ts)
	if got := m["sparsedistd_dedup_hits_total"]; got != 1 {
		t.Errorf("dedup hits = %g, want 1 (the conflict is not a hit)", got)
	}
	if got := m["sparsedistd_jobs_submitted_total"]; got != 1 {
		t.Errorf("submitted = %g, want 1 (the conflict must not enqueue)", got)
	}
}
