package server_test

// Streamed-job tests: the daemon's out-of-core path, over synthetic and
// file sources.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sparse"
)

// TestStreamedJob runs one synthetic out-of-core job end to end and
// checks the result is flagged Streamed with the right totals, and that
// a resubmission hits the plan cache.
func TestStreamedJob(t *testing.T) {
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 8, Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := server.JobSpec{N: 96, Ratio: 0.1, Scheme: "ED", Partition: "balanced-row",
		Procs: 4, Method: "CRS", Stream: true, MemBudget: 1 << 16}
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
	if !res.Streamed {
		t.Error("result not flagged Streamed")
	}
	ratio := 0.1
	want := int(ratio*96*96 + 0.5)
	if res.NNZ != want {
		t.Errorf("streamed NNZ = %d, want %d", res.NNZ, want)
	}
	if res.Rows != 96 || res.Cols != 96 || res.Procs != 4 {
		t.Errorf("geometry = p%d %dx%d, want p4 96x96", res.Procs, res.Rows, res.Cols)
	}
	if res.ArrayCacheHit {
		t.Error("streamed job reported an array cache hit; it must bypass the array cache")
	}
	if res.PlanCacheHit {
		t.Error("first streamed job of its shape reported a plan cache hit")
	}

	id2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st2, err := c.Wait(ctx, id2, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait 2: %v", err)
	}
	if st2.Result == nil || !st2.Result.PlanCacheHit {
		t.Error("second streamed job of the same shape missed the plan cache")
	}
}

// TestStreamedJobFromFile serves a distribution out of an on-disk
// Matrix Market file.
func TestStreamedJobFromFile(t *testing.T) {
	g := sparse.Uniform(40, 40, 0.15, 3)
	var buf bytes.Buffer
	if err := sparse.WriteText(&buf, sparse.FromDense(g)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.mtx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, c, _ := startDaemon(t, server.Config{QueueDepth: 8, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	id, err := c.Submit(ctx, server.JobSpec{
		Scheme: "CFS", Partition: "row", Procs: 4, Method: "CCS",
		Stream: true, SourceFile: path,
	})
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
	if st.Result.Rows != 40 || st.Result.Cols != 40 {
		t.Errorf("geometry %dx%d, want 40x40", st.Result.Rows, st.Result.Cols)
	}
	if st.Result.NNZ != g.NNZ() {
		t.Errorf("NNZ = %d, want %d", st.Result.NNZ, g.NNZ())
	}
	if !st.Result.Streamed {
		t.Error("file-sourced result not flagged Streamed")
	}

	// A missing file must fail the job, not wedge it.
	id2, err := c.Submit(ctx, server.JobSpec{Stream: true, SourceFile: filepath.Join(t.TempDir(), "gone.mtx")})
	if err != nil {
		t.Fatalf("submit missing-file job: %v", err)
	}
	st2, err := c.Wait(ctx, id2, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait missing-file job: %v", err)
	}
	if st2.State != server.StateFailed {
		t.Errorf("missing-file job state = %q, want failed", st2.State)
	}
}

// TestStreamedJobHostileHeader: a source_file whose header declares
// 2^62 rows used to panic in makeslice on the worker goroutine, where
// no recover stands between it and the process. It now fails the job
// with the partition constructor's error and the daemon keeps serving.
func TestStreamedJobHostileHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.mtx")
	header := "%%MatrixMarket matrix coordinate real general\n4611686018427387904 1 0\n"
	if err := os.WriteFile(path, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, err := c.Submit(ctx, server.JobSpec{Stream: true, SourceFile: path})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Wait(ctx, id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateFailed || !strings.Contains(st.Error, "rows 4611686018427387904") {
		t.Errorf("job state = %q (error %q), want failed naming the 2^62 rows", st.State, st.Error)
	}
	if err := c.Health(ctx); err != nil {
		t.Errorf("healthz after the job: %v", err)
	}
}

// TestStreamedJobHeaderOverLimit: a source_file whose header declares
// 2^31-1 rows passes the parser's int32 bound, but a plan for it would
// ask for a 16 GiB ownership map and end the process in a fatal out of
// memory that no recover contains. The header is held to Limits.MaxN
// before any plan is built: the job fails naming the limit, and the
// next ordinary job runs.
func TestStreamedJobHeaderOverLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.mtx")
	header := "%%MatrixMarket matrix coordinate real general\n2147483647 1000 0\n"
	if err := os.WriteFile(path, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id, err := c.Submit(ctx, server.JobSpec{Stream: true, SourceFile: path})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Wait(ctx, id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateFailed || !strings.Contains(st.Error, "exceeds the server's limit of 4096") {
		t.Errorf("job state = %q (error %q), want failed naming the limit", st.State, st.Error)
	}

	id2, err := c.Submit(ctx, server.JobSpec{N: 32, Ratio: 0.1, Procs: 2})
	if err != nil {
		t.Fatalf("submit after the refused header: %v", err)
	}
	st2, err := c.Wait(ctx, id2, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st2.State != server.StateDone {
		t.Errorf("ordinary job after the refused header: state %q (error %q), want done", st2.State, st2.Error)
	}
}

// TestStreamSpecValidation: the new spec fields reject incoherent
// combinations at admission.
func TestStreamSpecValidation(t *testing.T) {
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 4, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	bad := []server.JobSpec{
		{SourceFile: "a.mtx"},         // file without stream
		{MemBudget: 1 << 20},          // budget without stream
		{Stream: true, MemBudget: -1}, // negative budget
	}
	for i, spec := range bad {
		if _, err := c.Submit(ctx, spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
