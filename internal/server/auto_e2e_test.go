package server_test

// End-to-end auto-tuning: a real httptest daemon driven through the
// typed client, the way a remote caller would submit scheme=auto work.

import (
	"context"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

func TestAutoJobE2E(t *testing.T) {
	_, c, _ := startDaemon(t, server.Config{QueueDepth: 8, Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := server.JobSpec{N: 64, Scheme: "auto", Procs: 4, Check: true}
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Wait(ctx, id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateDone {
		t.Fatalf("state = %q, error %q", st.State, st.Error)
	}
	res := st.Result
	if !res.Auto {
		t.Fatal("result not flagged auto")
	}
	switch res.ChosenScheme {
	case "SFC", "CFS", "ED":
	default:
		t.Errorf("chosen_scheme = %q, want a concrete scheme", res.ChosenScheme)
	}
	if res.Scheme != res.ChosenScheme {
		t.Errorf("ran scheme %s but chose %s", res.Scheme, res.ChosenScheme)
	}
	if res.ChosenPartition == "" || res.ChosenMethod == "" {
		t.Errorf("chosen plan incomplete: partition %q, method %q", res.ChosenPartition, res.ChosenMethod)
	}
	if res.PredictedDistribution <= 0 {
		t.Error("no predicted distribution time in the result")
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phase report has %d phases, want 2", len(res.Phases))
	}
	// The submitted spec is echoed back canonicalised, still AUTO: the
	// resolution lives in the result, not in the spec.
	if st.Spec.Scheme != "AUTO" {
		t.Errorf("status spec scheme = %q, want AUTO", st.Spec.Scheme)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	key := `sparsedistd_auto_jobs_total{scheme="` + res.ChosenScheme + `"}`
	if m[key] < 1 {
		t.Errorf("%s = %g, want >= 1", key, m[key])
	}

	// The typed client surfaces the server's conflicts as *APIError.
	var apiErr *client.APIError
	if _, err := c.Submit(ctx, server.JobSpec{N: 64, Scheme: "auto", Method: "CRS"}); !asAPIError(err, &apiErr) {
		t.Errorf("auto + explicit method: got %v, want *APIError", err)
	}
}
