package server_test

// End-to-end tests: a real httptest daemon driven through the typed
// client, the way cmd/sparsedistd's load generator drives a live one.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

func startDaemon(t *testing.T, cfg server.Config) (*server.Server, *client.Client, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return s, client.New(ts.URL), ts
}

// TestSubmitPollFetch walks one job through the whole lifecycle and
// checks the result payload carries the paper-style phase report.
func TestSubmitPollFetch(t *testing.T) {
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 8, Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	spec := server.JobSpec{N: 64, Scheme: "sfc", Partition: "row", Procs: 4, Method: "crs"}
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Wait(ctx, id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job state = %q (error %q), want done", st.State, st.Error)
	}
	res := st.Result
	if res == nil {
		t.Fatal("done job has no result")
	}
	if res.Scheme != "SFC" || res.Method != "CRS" {
		t.Errorf("result scheme/method = %s/%s, want SFC/CRS (lower-case spec must be canonicalised)", res.Scheme, res.Method)
	}
	if res.Procs != 4 || res.Rows != 64 || res.Cols != 64 {
		t.Errorf("result geometry = p%d %dx%d, want p4 64x64", res.Procs, res.Rows, res.Cols)
	}
	if res.NNZ <= 0 || res.Messages <= 0 || res.Elements <= 0 {
		t.Errorf("result totals nnz=%d messages=%d elements=%d, want all positive", res.NNZ, res.Messages, res.Elements)
	}
	if len(res.Phases) != 2 || res.Phases[0].Name != "T_Distribution" || res.Phases[1].Name != "T_Compression" {
		t.Errorf("phase report = %+v, want T_Distribution then T_Compression", res.Phases)
	}
	if res.PlanCacheHit {
		t.Error("first job of its shape reported a plan cache hit")
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Error("terminal status is missing timestamps")
	}

	// Same spec again: both caches must hit.
	id2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	st2, err := c.Wait(ctx, id2, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("second wait: %v", err)
	}
	if st2.State != server.StateDone {
		t.Fatalf("second job state = %q (error %q)", st2.State, st2.Error)
	}
	if !st2.Result.PlanCacheHit || !st2.Result.ArrayCacheHit {
		t.Errorf("repeat job cache hits: plan=%v array=%v, want both true",
			st2.Result.PlanCacheHit, st2.Result.ArrayCacheHit)
	}
}

// TestSchemesAndPartitions runs one job per scheme across assorted
// partitions and methods — the service must accept everything the CLI
// does.
func TestSchemesAndPartitions(t *testing.T) {
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 16, Workers: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	specs := []server.JobSpec{
		{N: 48, Scheme: "SFC", Partition: "mesh", Procs: 4, Method: "CCS"},
		{N: 48, Scheme: "CFS", Partition: "cyclic-row", Procs: 4, Method: "JDS"},
		{N: 48, Scheme: "ED", Partition: "balanced-row", Procs: 4, Check: true},
		{N: 48, Scheme: "ED", Partition: "brs", Procs: 4, Block: 2},
		{N: 48, Scheme: "CFS", Partition: "(block,block)", Procs: 4, MeshRows: 2, MeshCols: 2},
	}
	for _, spec := range specs {
		id, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %s/%s: %v", spec.Scheme, spec.Partition, err)
		}
		st, err := c.Wait(ctx, id, 2*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s/%s: %v", spec.Scheme, spec.Partition, err)
		}
		if st.State != server.StateDone {
			t.Errorf("%s over %s: state %q, error %q", spec.Scheme, spec.Partition, st.State, st.Error)
		}
	}

	// balanced-row plans depend on the array values, so a repeat with
	// the same array must still hit the plan cache.
	spec := server.JobSpec{N: 48, Scheme: "ED", Partition: "balanced-row", Procs: 4}
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("balanced-row repeat submit: %v", err)
	}
	st, err := c.Wait(ctx, id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("balanced-row repeat wait: %v", err)
	}
	if st.State != server.StateDone || !st.Result.PlanCacheHit {
		t.Errorf("balanced-row repeat: state %q, plan hit %v, want done with a hit",
			st.State, st.Result != nil && st.Result.PlanCacheHit)
	}
}

// TestHostileBlockSizeJob: the request that used to end the daemon. No
// validator bounds block, and 2^62 made the brs stride wrap to zero for
// four parts, so the worker grew an ownership map until the runtime ran
// out of memory — past any recover. A block wider than the array is one
// block: the job runs, and the daemon is still there to say so.
func TestHostileBlockSizeJob(t *testing.T) {
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, err := c.Submit(ctx, server.JobSpec{N: 10, Procs: 4, Partition: "brs", Block: 1 << 62, Check: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Wait(ctx, id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job state = %q (error %q), want done", st.State, st.Error)
	}
	if want := "brs-b4611686018427387904"; st.Result.Partition != want {
		t.Errorf("result partition = %q, want %q", st.Result.Partition, want)
	}
	if err := c.Health(ctx); err != nil {
		t.Errorf("healthz after the job: %v", err)
	}
}

// TestBadRequests mirrors the CLI's validateFlags table over HTTP:
// every malformed or out-of-limits spec must be a 400 with a JSON
// error, before anything is queued.
func TestBadRequests(t *testing.T) {
	_, c, ts := startDaemon(t, server.Config{
		QueueDepth: 4, Workers: 1,
		Limits: server.Limits{MaxN: 256, MaxProcs: 8},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The table is shared with the white-box validator test and the
	// fuzz corpus (spec_test.go).
	for _, tc := range server.BadRequests {
		t.Run(tc.Name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.Body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}

	// The typed client surfaces the same rejections as *APIError.
	_, err := c.Submit(ctx, server.JobSpec{N: 64, Scheme: "BOGUS"})
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("client submit of bad spec: got %v, want *APIError with 400", err)
	}
	if apiErr.Message == "" {
		t.Error("APIError carries no message")
	}

	// Unknown job ids are 404s on both read and cancel.
	if _, err := c.Status(ctx, "j-999999"); !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("status of unknown job: got %v, want 404", err)
	}
	if _, err := c.Cancel(ctx, "j-999999"); !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("cancel of unknown job: got %v, want 404", err)
	}
}

// TestStreamFieldsAreUnknown: the daemon serves no streamed jobs, so
// stream, source_file and mem_budget are fields it does not know. A
// request carrying one is a 400 naming the field, and a file named in
// it is never opened: its contents cannot reach the response.
func TestStreamFieldsAreUnknown(t *testing.T) {
	const marker = "% marker line 5d1c9a"
	path := filepath.Join(t.TempDir(), "a.mtx")
	mtx := "%%MatrixMarket matrix coordinate real general\n" + marker + "\n2 2 1\n1 1 1.5\n"
	if err := os.WriteFile(path, []byte(mtx), 0o644); err != nil {
		t.Fatal(err)
	}
	quoted, err := json.Marshal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ts := startDaemon(t, server.Config{QueueDepth: 4, Workers: 1})
	for _, tc := range []struct{ body, field string }{
		{`{"stream":true,"source_file":` + string(quoted) + `}`, "stream"},
		{`{"source_file":` + string(quoted) + `}`, "source_file"},
		{`{"mem_budget":1}`, "mem_budget"},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(string(body), `\"`+tc.field+`\"`) {
			t.Errorf("%s: body %s does not name %q", tc.body, body, tc.field)
		}
		if strings.Contains(string(body), "marker line") {
			t.Errorf("%s: body %s carries the file's contents", tc.body, body)
		}
	}
}

func asAPIError(err error, target **client.APIError) bool {
	return errors.As(err, target)
}

// TestCancelRunningJob cancels a job that may already be running; the
// pool must come back unpoisoned either way — a follow-up job on the
// same processor count has to succeed.
func TestCancelRunningJob(t *testing.T) {
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	big := server.JobSpec{N: 1024, Ratio: 0.3, Procs: 8, Scheme: "ED", Method: "JDS"}
	id, err := c.Submit(ctx, big)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Cancel(ctx, id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	st, err := c.Wait(ctx, id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	// The cancel may land while queued, mid-run, or after completion —
	// all are legal; failure is not.
	if st.State == server.StateFailed {
		t.Fatalf("cancelled job failed: %s", st.Error)
	}

	after := server.JobSpec{N: 128, Procs: 8, Scheme: "ED"}
	id2, err := c.Submit(ctx, after)
	if err != nil {
		t.Fatalf("follow-up submit: %v", err)
	}
	st2, err := c.Wait(ctx, id2, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("follow-up wait: %v", err)
	}
	if st2.State != server.StateDone {
		t.Fatalf("follow-up job on the same procs: state %q, error %q — pooled machine poisoned?",
			st2.State, st2.Error)
	}
}

// TestMetricsGauges spot-checks the static gauges the config pins.
func TestMetricsGauges(t *testing.T) {
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 7, Workers: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if got := m["sparsedistd_queue_capacity"]; got != 7 {
		t.Errorf("queue capacity gauge = %g, want 7", got)
	}
	if got := m["sparsedistd_workers"]; got != 3 {
		t.Errorf("workers gauge = %g, want 3", got)
	}
	if got := m["sparsedistd_draining"]; got != 0 {
		t.Errorf("draining gauge = %g, want 0", got)
	}
}
