package server

// White-box tests: these use newServer (no workers) to hold jobs in
// the queue deterministically, which is the only way to test the
// backpressure and cancel-while-queued paths without timing races.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	return resp
}

func decodeID(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	if out.ID == "" {
		t.Fatal("submit response has empty id")
	}
	return out.ID
}

func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
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

// parseMetricsText is a minimal local twin of client.ParseMetrics (the
// client package cannot be imported from package server tests, since
// client itself imports server).
func parseMetricsText(resp *http.Response) (map[string]float64, error) {
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, err
		}
		out[line[:i]] = v
	}
	return out, nil
}

// TestQueueFullReturns429 fills the queue with no workers running, so
// the over-capacity submit deterministically hits the 429 path and the
// rejection is visible in /metrics.
func TestQueueFullReturns429(t *testing.T) {
	s := newServer(Config{QueueDepth: 2, Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := `{"n":32,"procs":2}`
	id1 := decodeID(t, postJob(t, ts, spec))
	id2 := decodeID(t, postJob(t, ts, spec))
	if id1 == id2 {
		t.Fatalf("duplicate job ids: %s", id1)
	}

	resp := postJob(t, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit with full queue: got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response is missing Retry-After")
	}

	m := scrape(t, ts)
	if got := m["sparsedistd_jobs_rejected_total"]; got != 1 {
		t.Errorf("rejected counter = %g, want 1", got)
	}
	if got := m["sparsedistd_queue_depth"]; got != 2 {
		t.Errorf("queue depth gauge = %g, want 2", got)
	}

	// Let the queued jobs run out so Drain can complete.
	s.start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := scrape(t, ts)[`sparsedistd_jobs_total{state="done"}`]; got != 2 {
		t.Errorf("done counter after drain = %g, want 2", got)
	}
}

// TestCancelWhileQueued cancels a job before any worker exists, then
// starts the pool and checks the worker skipped it.
func TestCancelWhileQueued(t *testing.T) {
	s := newServer(Config{QueueDepth: 4, Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	keep := decodeID(t, postJob(t, ts, `{"n":32,"procs":2}`))
	drop := decodeID(t, postJob(t, ts, `{"n":32,"procs":2}`))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+drop, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding cancel response: %v", err)
	}
	resp.Body.Close()
	if st.State != StateCanceled {
		t.Fatalf("cancelled queued job state = %q, want %q", st.State, StateCanceled)
	}

	s.start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	j, ok := s.lookup(keep)
	if !ok {
		t.Fatalf("job %s vanished", keep)
	}
	if got := j.status().State; got != StateDone {
		t.Errorf("kept job state = %q, want done", got)
	}
	j, _ = s.lookup(drop)
	if got := j.status().State; got != StateCanceled {
		t.Errorf("cancelled job state = %q, want canceled (worker must skip it)", got)
	}

	m := scrape(t, ts)
	if got := m[`sparsedistd_jobs_total{state="canceled"}`]; got != 1 {
		t.Errorf("canceled counter = %g, want 1", got)
	}
	if got := m[`sparsedistd_jobs_total{state="done"}`]; got != 1 {
		t.Errorf("done counter = %g, want 1", got)
	}
}

// TestDrainFinishesAcceptedJobs submits a burst and drains: every
// accepted job must reach a terminal done state, and post-drain
// traffic must see 503s.
func TestDrainFinishesAcceptedJobs(t *testing.T) {
	s := New(Config{QueueDepth: 16, Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, decodeID(t, postJob(t, ts, `{"n":48,"procs":4,"scheme":"SFC"}`)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, id := range ids {
		j, ok := s.lookup(id)
		if !ok {
			t.Fatalf("job %s vanished during drain", id)
		}
		if got := j.status().State; got != StateDone {
			t.Errorf("job %s state after drain = %q, want done", id, got)
		}
	}

	// Draining server: healthz 503, new submissions 503.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	resp = postJob(t, ts, `{"n":32}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if got := scrape(t, ts)["sparsedistd_jobs_refused_draining_total"]; got != 1 {
		t.Errorf("draining-refusal counter = %g, want 1", got)
	}

	// A second drain is a no-op that still succeeds.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestHistoryEviction keeps the job map bounded: only terminal jobs are
// evicted, oldest first.
func TestHistoryEviction(t *testing.T) {
	s := newServer(Config{QueueDepth: 8, Workers: 1, MaxJobHistory: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := decodeID(t, postJob(t, ts, `{"n":32,"procs":2}`))
	s.start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Run the first to terminal, then submit two more: the submit that
	// overflows the history must evict the finished first job.
	waitTerminal(t, s, first, 10*time.Second)
	decodeID(t, postJob(t, ts, `{"n":32,"procs":2}`))
	third := decodeID(t, postJob(t, ts, `{"n":32,"procs":2}`))
	if _, ok := s.lookup(first); ok {
		t.Errorf("job %s should have been evicted from history", first)
	}
	if _, ok := s.lookup(third); !ok {
		t.Errorf("job %s should still be tracked", third)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func waitTerminal(t *testing.T, s *Server, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j, ok := s.lookup(id)
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		st := j.status()
		if st.State.terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state in %v", id, timeout)
	return JobStatus{}
}

// TestTopologyJobReportsNetTiming: a server started with a topology
// attaches the network model to pooled machines and reports the
// replayed phase estimates; two identical jobs on the *same* pooled
// machine must agree exactly, proving put() resets the recorder.
func TestTopologyJobReportsNetTiming(t *testing.T) {
	s := New(Config{Workers: 1, Topology: "star"})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	spec := `{"n":64,"procs":2,"scheme":"CFS"}`
	first := waitTerminal(t, s, decodeID(t, postJob(t, ts, spec)), 30*time.Second)
	if first.State != StateDone {
		t.Fatalf("first job: state %s, error %q", first.State, first.Error)
	}
	r := first.Result
	if r.Topology != "star" {
		t.Fatalf("result topology = %q, want star", r.Topology)
	}
	if r.NetDistribution <= 0 || r.NetCompression <= 0 {
		t.Fatalf("net phases not populated: dist %v comp %v", r.NetDistribution, r.NetCompression)
	}
	if r.NetMakespan < r.NetDistribution {
		t.Errorf("makespan %v < distribution %v", r.NetMakespan, r.NetDistribution)
	}

	second := waitTerminal(t, s, decodeID(t, postJob(t, ts, spec)), 30*time.Second)
	if second.State != StateDone {
		t.Fatalf("second job: state %s, error %q", second.State, second.Error)
	}
	if got := second.Result; got.NetDistribution != r.NetDistribution || got.NetMakespan != r.NetMakespan {
		t.Errorf("reused machine drifted: first dist %v makespan %v, second dist %v makespan %v",
			r.NetDistribution, r.NetMakespan, got.NetDistribution, got.NetMakespan)
	}
}

// TestNoTopologyJobOmitsNetTiming pins the default: without
// Config.Topology the result carries no network-model section.
func TestNoTopologyJobOmitsNetTiming(t *testing.T) {
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

	st := waitTerminal(t, s, decodeID(t, postJob(t, ts, `{"n":32,"procs":2}`)), 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job: state %s, error %q", st.State, st.Error)
	}
	if r := st.Result; r.Topology != "" || r.NetDistribution != 0 {
		t.Errorf("unexpected net timing without topology: %+v", r)
	}
}

// TestNetPhasesAreTheDistributions pins what the Net* fields replay
// under a topology: the job's distribution, taken before the op runs.
// An op job that misses the op-plan cache reports the same four values
// as the plain job with its spec, and the repeat that hits the cache
// distributed nothing, so it reports none.
func TestNetPhasesAreTheDistributions(t *testing.T) {
	s := New(Config{QueueDepth: 8, Workers: 1, Topology: "mesh"})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	const spec = `{"n":160,"ratio":0.1,"scheme":"ED","procs":4,"partition":"row","method":"CRS","seed":3,"workers":1}`
	net := func(r *JobResult) [4]time.Duration {
		return [4]time.Duration{r.NetDistribution, r.NetCompression, r.NetMakespan, r.NetQueued}
	}
	plain := net(mustJobDone(t, ts, decodeID(t, postJob(t, ts, spec))))
	if plain[0] == 0 || plain[1] == 0 {
		t.Fatalf("plain job on a mesh reported no replay: %v", plain)
	}
	op := strings.Replace(spec, `"workers":1`, `"workers":1,"op":"spmv"`, 1)
	miss := mustJobDone(t, ts, decodeID(t, postJob(t, ts, op)))
	if miss.OpPlanCacheHit || net(miss) != plain {
		t.Errorf("op job on a cache miss (hit %t): net_* %v, want the plain job's %v", miss.OpPlanCacheHit, net(miss), plain)
	}
	hit := mustJobDone(t, ts, decodeID(t, postJob(t, ts, op)))
	if !hit.OpPlanCacheHit || net(hit) != [4]time.Duration{} {
		t.Errorf("op job on a cache hit (hit %t): net_* %v, want none", hit.OpPlanCacheHit, net(hit))
	}
}

// TestJobPanicFailsOnlyItsJob: a panic while a job executes fails that
// job with the panic text and leaves its worker serving. A nil cached
// array panics before a machine is checked out; a nil cached comm plan
// panics while one is held, and that machine must still go back to the
// pool.
func TestJobPanicFailsOnlyItsJob(t *testing.T) {
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

	noArray := JobSpec{N: 32, Seed: 7}.withDefaults()
	noPlan := JobSpec{N: 32, Seed: 8, Op: "spmv"}.withDefaults()
	planKey := newPlanKey(noPlan.config(s.cfg).Normalized(), noPlan.N, noPlan.N)
	planKey.array = specArrayKey(noPlan)
	s.arrays.mu.Lock()
	s.arrays.entries[specArrayKey(noArray)] = nil
	s.arrays.mu.Unlock()
	s.opPlans.mu.Lock()
	s.opPlans.entries[planKey] = nil
	s.opPlans.mu.Unlock()

	for _, body := range []string{`{"n":32,"seed":7}`, `{"n":32,"seed":8,"op":"spmv"}`} {
		st := waitTerminal(t, s, decodeID(t, postJob(t, ts, body)), 30*time.Second)
		if st.State != StateFailed || !strings.Contains(st.Error, "panicked") || !strings.Contains(st.Error, "nil pointer") {
			t.Fatalf("%s: state %s, error %q; want failed with the panic text", body, st.State, st.Error)
		}
	}
	if idle := s.pool.idleCount(); idle != 1 {
		t.Errorf("%d idle machines after the comm-plan panic, want the one it held back", idle)
	}
	if st := waitTerminal(t, s, decodeID(t, postJob(t, ts, `{"n":32,"seed":9,"op":"spmv"}`)), 30*time.Second); st.State != StateDone {
		t.Fatalf("job after the panics: state %s, error %q", st.State, st.Error)
	}
	m := scrape(t, ts)
	if m["sparsedistd_job_panics_total"] != 2 || m[`sparsedistd_jobs_total{state="failed"}`] != 2 {
		t.Errorf("panics %g, failed %g; want 2 and 2",
			m["sparsedistd_job_panics_total"], m[`sparsedistd_jobs_total{state="failed"}`])
	}
}
