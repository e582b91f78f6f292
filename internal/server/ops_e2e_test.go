package server_test

// End-to-end tests of the distributed compute ops: jobs carrying an
// "op" run halo-exchange SpMV / Jacobi / row-fetch SpGEMM on the
// distributed array and report the traffic, with the comm plan cached
// across jobs of the same shape.

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// TestOpJobLifecycle runs each op end to end and checks the ops_*
// result fields: traffic moved, halo strictly reported, and — on the
// second identical job — the comm-plan cache hitting.
func TestOpJobLifecycle(t *testing.T) {
	_, c, ts := startDaemon(t, server.Config{QueueDepth: 8, Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The comm plan is keyed by (array, plan), not by op: jacobi runs
	// on the diagonally dominant array variant so it derives its own
	// plan, but spgemm of the plain array reuses the plan the spmv job
	// already derived.
	wantFirstHit := map[string]bool{"spmv": false, "jacobi": false, "spgemm": true}
	for _, op := range []string{"spmv", "jacobi", "spgemm"} {
		spec := server.JobSpec{N: 48, Scheme: "ED", Partition: "row", Procs: 4, Op: op}
		st := waitDone(t, ctx, c, spec)
		res := st.Result
		if res.Op != op {
			t.Fatalf("%s: result op = %q", op, res.Op)
		}
		if res.OpMessages <= 0 || res.OpWireWords <= 0 || res.OpFlops <= 0 {
			t.Fatalf("%s: no traffic/work reported: %+v", op, res)
		}
		if res.OpBcastWords <= 0 {
			t.Fatalf("%s: broadcast-equivalent baseline missing", op)
		}
		if res.OpPlanCacheHit != wantFirstHit[op] {
			t.Fatalf("%s: first job comm-plan hit = %t, want %t", op, res.OpPlanCacheHit, wantFirstHit[op])
		}
		if op == "jacobi" && !res.OpConverged {
			t.Fatalf("jacobi did not converge in %d iterations", res.OpIterations)
		}

		st2 := waitDone(t, ctx, c, spec)
		if !st2.Result.OpPlanCacheHit {
			t.Fatalf("%s: repeat job missed the comm-plan cache", op)
		}
		if st2.Result.OpWireWords != res.OpWireWords {
			t.Fatalf("%s: repeat job moved %d wire words, first moved %d (op is not deterministic)",
				op, st2.Result.OpWireWords, res.OpWireWords)
		}
	}

	// The ops counters must be on /metrics.
	resp, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`sparsedistd_ops_total{op="spmv"}`,
		`sparsedistd_ops_total{op="jacobi"}`,
		`sparsedistd_ops_total{op="spgemm"}`,
	} {
		if resp[name] < 2 {
			t.Errorf("metric %s = %g, want >= 2", name, resp[name])
		}
	}
	if resp[`sparsedistd_ops_plan_cache_hits_total`] < 3 {
		t.Errorf("ops plan cache hits = %g, want >= 3", resp[`sparsedistd_ops_plan_cache_hits_total`])
	}
	// Both traffic counters must move; which is larger depends on the
	// array's structure (dense column support on small uniform arrays
	// makes broadcast competitive — the banded benchmark is where the
	// halo win is gated).
	if resp[`sparsedistd_ops_wire_words_total`] <= 0 {
		t.Error("ops wire words counter did not move")
	}
	if resp[`sparsedistd_ops_broadcast_equiv_words_total`] <= 0 {
		t.Error("ops broadcast-equivalent counter did not move")
	}
	_ = ts
}

// TestOpJobValidation pins the admission rules for op jobs.
func TestOpJobValidation(t *testing.T) {
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 8, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cases := []struct {
		name string
		spec server.JobSpec
		want string
	}{
		{"unknown op", server.JobSpec{N: 32, Op: "qr"}, "op"},
		{"negative iters", server.JobSpec{N: 32, Op: "jacobi", OpIters: -1}, "op_iters"},
		{"iters without jacobi", server.JobSpec{N: 32, Op: "spmv", OpIters: 10}, "op_iters"},
	}
	for _, tc := range cases {
		if _, err := c.Submit(ctx, tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: submit error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// waitDone submits a spec and waits for it to complete successfully.
func waitDone(t *testing.T, ctx context.Context, c *client.Client, spec server.JobSpec) server.JobStatus {
	t.Helper()
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
	if st.Result == nil {
		t.Fatal("done job has no result")
	}
	return st
}
