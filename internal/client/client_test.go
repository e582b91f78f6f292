package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestParseMetrics checks the scrape parser keeps labelled series
// distinct and skips comments.
func TestParseMetrics(t *testing.T) {
	text := `# HELP sparsedistd_jobs_total Terminal jobs by state.
# TYPE sparsedistd_jobs_total counter
sparsedistd_jobs_total{state="done"} 12
sparsedistd_jobs_total{state="failed"} 0
sparsedistd_queue_depth 3
sparsedistd_job_duration_seconds_sum{scheme="ED"} 0.125

`
	m, err := ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseMetrics: %v", err)
	}
	want := map[string]float64{
		`sparsedistd_jobs_total{state="done"}`:              12,
		`sparsedistd_jobs_total{state="failed"}`:            0,
		`sparsedistd_queue_depth`:                           3,
		`sparsedistd_job_duration_seconds_sum{scheme="ED"}`: 0.125,
	}
	if len(m) != len(want) {
		t.Fatalf("parsed %d series, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("series %s = %g, want %g", k, m[k], v)
		}
	}

	if _, err := ParseMetrics(strings.NewReader("sparsedistd_bad not-a-number\n")); err == nil {
		t.Error("ParseMetrics accepted a non-numeric sample")
	}
}

// TestSubmitRetryBacksOff drives SubmitRetry against a handler that
// 429s twice before accepting: the client must absorb the
// backpressure and return the eventual id.
func TestSubmitRetryBacksOff(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "j-000042"})
	}))
	defer ts.Close()

	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, err := c.SubmitRetry(ctx, server.JobSpec{N: 32})
	if err != nil {
		t.Fatalf("SubmitRetry: %v", err)
	}
	if id != "j-000042" {
		t.Errorf("id = %q, want j-000042", id)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("handler saw %d submits, want 3 (two rejected, one accepted)", got)
	}
}

// TestSubmitRetryHonoursContext: a persistently full queue must not
// spin forever — ctx cancellation breaks the loop.
func TestSubmitRetryHonoursContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.SubmitRetry(ctx, server.JobSpec{N: 32}); err == nil {
		t.Fatal("SubmitRetry returned nil against a permanently full queue")
	}
}

// TestSubmitQueueFullError checks the 429 protocol surfaces as a typed
// error with the server's Retry-After.
func TestSubmitQueueFullError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL)
	_, err := c.Submit(context.Background(), server.JobSpec{N: 32})
	qf, ok := err.(*QueueFullError)
	if !ok {
		t.Fatalf("Submit error = %T (%v), want *QueueFullError", err, err)
	}
	if qf.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s", qf.RetryAfter)
	}
}

func writeBody(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// TestSubmitRetryFullJitter: each backoff window is the server's
// Retry-After when present (and the growing local window otherwise),
// with the actual sleep drawn from the jitter function — never the
// raw deterministic value.
func TestSubmitRetryFullJitter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		switch {
		case n <= 2:
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
		case n <= 4:
			// No Retry-After: the client falls back to its own window.
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			writeBody(w, http.StatusAccepted, map[string]string{"id": "j-1"})
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	var windows []time.Duration
	c.jitter = func(max time.Duration) time.Duration {
		windows = append(windows, max)
		return time.Microsecond // keep the test fast
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.SubmitRetry(ctx, server.JobSpec{N: 32}); err != nil {
		t.Fatalf("SubmitRetry: %v", err)
	}
	want := []time.Duration{7 * time.Second, 7 * time.Second, 200 * time.Millisecond, 400 * time.Millisecond}
	if len(windows) != len(want) {
		t.Fatalf("jitter windows = %v, want %d entries", windows, len(want))
	}
	for i := range want {
		if windows[i] != want[i] {
			t.Errorf("window[%d] = %v, want %v (full: %v)", i, windows[i], want[i], windows)
		}
	}
}

// TestFullJitterBounds: the default jitter is uniform in (0, max] —
// never zero, never above the window.
func TestFullJitterBounds(t *testing.T) {
	const max = 100 * time.Millisecond
	low := false
	for i := 0; i < 2000; i++ {
		d := fullJitter(max)
		if d <= 0 || d > max {
			t.Fatalf("fullJitter(%v) = %v, out of (0, max]", max, d)
		}
		if d < max/2 {
			low = true
		}
	}
	if !low {
		t.Error("2000 draws never landed below max/2; jitter looks constant")
	}
	if got := fullJitter(0); got != 0 {
		t.Errorf("fullJitter(0) = %v, want 0", got)
	}
}

// TestSubmitRetryCancelMidBackoff: with the server demanding a 30s
// Retry-After, cancelling the context must return promptly with
// ctx.Err() — not after the backoff elapses.
func TestSubmitRetryCancelMidBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(ts.URL)
	// Pin the sleep at the full window so the test proves cancellation
	// interrupts it rather than racing a lucky small jitter draw.
	c.jitter = func(max time.Duration) time.Duration { return max }
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	_, err := c.SubmitRetry(ctx, server.JobSpec{N: 32})
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("SubmitRetry error = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("SubmitRetry took %v to notice cancellation; must abort the 30s backoff promptly", elapsed)
	}
}
