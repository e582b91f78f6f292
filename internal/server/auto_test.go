package server

// White-box auto-tuning tests: plan-cache array identity, idempotent
// dedup of auto retries, the resolved plan's independence from the
// jobs served before it (run under -race in CI), and the prediction
// error read against the clock that priced it.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sparse"
)

func waitJobTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatalf("GET /jobs/%s: %v", id, err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func mustJobDone(t *testing.T, ts *httptest.Server, id string) *JobResult {
	t.Helper()
	st := waitJobTerminal(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job %s state = %q, error %q", id, st.State, st.Error)
	}
	if st.Result == nil {
		t.Fatalf("job %s done with no result", id)
	}
	return st.Result
}

// TestAutoPlanCacheArrayIdentity is the bugfix contract for the plan
// cache: an auto job's plan depends on the array's values (its measured
// statistics drive selection), so the cache must key by array identity —
// same spec hits, same shape with a different seed must NOT reuse the
// plan resolved for another array.
func TestAutoPlanCacheArrayIdentity(t *testing.T) {
	s := New(Config{QueueDepth: 8, Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	spec := `{"n":48,"scheme":"auto","procs":4,"seed":3,"ratio":0.1}`
	res1 := mustJobDone(t, ts, decodeID(t, postJob(t, ts, spec)))
	if !res1.Auto {
		t.Fatal("auto job result not flagged auto")
	}
	if res1.PlanCacheHit {
		t.Error("first auto job reported a plan cache hit")
	}

	res2 := mustJobDone(t, ts, decodeID(t, postJob(t, ts, spec)))
	if !res2.PlanCacheHit {
		t.Error("identical auto resubmit missed the plan cache")
	}
	if res2.ChosenScheme != res1.ChosenScheme || res2.ChosenPartition != res1.ChosenPartition {
		t.Errorf("identical resubmit chose (%s,%s), first chose (%s,%s)",
			res2.ChosenScheme, res2.ChosenPartition, res1.ChosenScheme, res1.ChosenPartition)
	}

	// Same shape, different values: a fresh plan, never the cached one.
	other := `{"n":48,"scheme":"auto","procs":4,"seed":4,"ratio":0.1}`
	res3 := mustJobDone(t, ts, decodeID(t, postJob(t, ts, other)))
	if res3.PlanCacheHit {
		t.Error("auto job on a different array hit the plan cached for seed 3")
	}

	hits, misses := s.plans.hits.Load(), s.plans.misses.Load()
	if hits != 1 || misses != 2 {
		t.Errorf("plan cache counters hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// TestPlanCacheBounded pins the eviction the plan cache lacked: auto
// jobs key their plan by array identity, so every new seed is a new
// entry, and a daemon fed distinct seeds must not pin partitions
// without limit.
func TestPlanCacheBounded(t *testing.T) {
	s := newServer(Config{})
	g := sparse.UniformExact(8, 8, 0.25, 1)
	for seed := int64(1); seed <= planCacheCap+1; seed++ {
		spec := JobSpec{N: 8, Ratio: 0.25, Seed: seed, Scheme: "ED", Procs: 2}.withDefaults()
		if _, hit, err := s.planFor(spec, spec.config(s.cfg).Normalized(), g, true); err != nil || hit {
			t.Fatalf("seed %d: hit=%v err=%v, want a fresh plan", seed, hit, err)
		}
	}
	if n := len(s.plans.entries); n > planCacheCap {
		t.Errorf("plan cache holds %d entries after %d distinct auto plans, cap %d", n, planCacheCap+1, planCacheCap)
	}
}

// TestAutoDedupIdempotent proves the retry loop cannot double-run an
// auto job: a resubmission with the same ClientID maps to the original
// job even though the spec's plan is only resolved in the worker.
func TestAutoDedupIdempotent(t *testing.T) {
	s := New(Config{QueueDepth: 8, Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	spec := `{"n":48,"scheme":"auto","procs":4,"client_id":"auto-retry-7"}`
	id := decodeID(t, postJob(t, ts, spec))
	mustJobDone(t, ts, id)

	resp := postJob(t, ts, spec)
	defer resp.Body.Close()
	var out struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding resubmit response: %v", err)
	}
	if !out.Deduped || out.ID != id {
		t.Errorf("resubmit = (id %s, deduped %v), want (id %s, deduped true)", out.ID, out.Deduped, id)
	}
	if got := s.metrics.dedupHits.Load(); got != 1 {
		t.Errorf("dedup hits = %d, want 1", got)
	}
}

// TestAutoValidation mirrors the CLI conflicts over HTTP: auto with an
// explicit method, or with the stream fields the daemon does not know,
// is a 400 before queuing;
// an auto job that only pins the partition is legal and honours it.
func TestAutoValidation(t *testing.T) {
	s := New(Config{QueueDepth: 8, Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	for _, tc := range []struct{ name, body string }{
		{"auto with method", `{"n":64,"scheme":"auto","method":"CRS"}`},
		{"auto with stream", `{"n":64,"scheme":"auto","stream":true}`},
		{"auto with stream and file", `{"n":64,"scheme":"auto","stream":true,"source_file":"x.mtx"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJob(t, ts, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}

	res := mustJobDone(t, ts, decodeID(t, postJob(t, ts, `{"n":48,"scheme":"auto","partition":"col","procs":4}`)))
	if res.ChosenPartition != "col" || res.Partition != "col" {
		t.Errorf("pinned partition col: chose %q, ran %q", res.ChosenPartition, res.Partition)
	}
	if res.ChosenMethod == "" {
		t.Error("auto job left no chosen method")
	}
}

// autoProbeSpec is a spec whose flat-clock and replayed costs differ
// on a mesh (1.878 ms replayed, 2.504 ms flat): a selection that
// learned from the flat clock would drift off its first pick.
const autoProbeSpec = `{"n":160,"ratio":0.1,"scheme":"auto","procs":4,"partition":"row","seed":3,"workers":1}`

// TestAutoPureAcrossHistory pins scheme=auto as a pure function of the
// array and the config: a server that has already served 50 auto jobs
// resolves the probe spec to the same plan as a fresh one, with and
// without a network model. The 50 jobs arrive from concurrent clients
// while /metrics is scraped, so under -race it also checks the auto
// path shares no unsynchronised state between workers.
func TestAutoPureAcrossHistory(t *testing.T) {
	for _, topology := range []string{"", "mesh"} {
		t.Run("topology="+topology, func(t *testing.T) {
			cfg := Config{QueueDepth: 64, Workers: 4, Topology: topology}
			fresh := New(cfg)
			fts := httptest.NewServer(fresh)
			defer fts.Close()
			defer fresh.Close()
			want := mustJobDone(t, fts, decodeID(t, postJob(t, fts, autoProbeSpec)))
			if !want.Auto || want.ChosenScheme == "" {
				t.Fatalf("fresh server resolved no plan: %+v", want)
			}

			s := New(cfg)
			ts := httptest.NewServer(s)
			defer ts.Close()
			defer s.Close()
			const clients, each = 5, 10
			ids := make(chan string, clients*each)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(autoProbeSpec))
						if err != nil {
							t.Errorf("POST: %v", err)
							return
						}
						ids <- decodeID(t, resp)
					}
				}()
			}
			stop := make(chan struct{})
			var scrapeWG sync.WaitGroup
			scrapeWG.Add(1)
			go func() {
				defer scrapeWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						scrape(t, ts)
						time.Sleep(time.Millisecond)
					}
				}
			}()
			wg.Wait()
			close(ids)
			var served []*JobResult
			for id := range ids {
				served = append(served, mustJobDone(t, ts, id))
			}
			close(stop)
			scrapeWG.Wait()
			served = append(served, mustJobDone(t, ts, decodeID(t, postJob(t, ts, autoProbeSpec))))

			plan := func(r *JobResult) string {
				return fmt.Sprintf("%s/%s/%s/%d", r.ChosenScheme, r.ChosenPartition, r.ChosenMethod, r.ChosenWorkers)
			}
			for i, r := range served {
				if plan(r) != plan(want) {
					t.Errorf("job %d of %d resolved %s, a fresh server %s", i+1, len(served), plan(r), plan(want))
				}
			}
			var autoJobs float64
			for k, v := range scrape(t, ts) {
				if strings.HasPrefix(k, "sparsedistd_auto_jobs_total{") {
					autoJobs += v
				}
			}
			if autoJobs != clients*each+1 {
				t.Errorf("auto jobs counter sums to %g, want %d", autoJobs, clients*each+1)
			}
		})
	}
}

// TestAutoPredictionErrorMesh reads the prediction against the clock
// that priced it: under a network model the job's own replay, not the
// flat virtual phases. An op job whose distribution came from the
// op-plan cache replayed only its op, so it reports no error.
func TestAutoPredictionErrorMesh(t *testing.T) {
	s := New(Config{QueueDepth: 8, Workers: 1, Topology: "mesh"})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	first := mustJobDone(t, ts, decodeID(t, postJob(t, ts, autoProbeSpec)))
	if first.NetDistribution == 0 {
		t.Fatal("mesh-topology job reported no replay")
	}
	if first.PredictionError > 0.03 {
		t.Errorf("first auto job on a mesh: prediction_error %g, want <= 0.03", first.PredictionError)
	}

	op := strings.Replace(autoProbeSpec, `"workers":1`, `"workers":1,"op":"spmv"`, 1)
	miss := mustJobDone(t, ts, decodeID(t, postJob(t, ts, op)))
	if miss.OpPlanCacheHit || miss.PredictionError > 0.03 {
		t.Errorf("op job on a cache miss: hit %t, prediction_error %g, want a miss within 0.03", miss.OpPlanCacheHit, miss.PredictionError)
	}
	hit := mustJobDone(t, ts, decodeID(t, postJob(t, ts, op)))
	if !hit.OpPlanCacheHit || hit.PredictionError != 0 {
		t.Errorf("op job on a cache hit: hit %t, prediction_error %g, want a hit with no error", hit.OpPlanCacheHit, hit.PredictionError)
	}
}
