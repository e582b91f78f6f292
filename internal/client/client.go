// Package client is the typed client for the sparsedistd daemon: it
// speaks the internal/server JSON API (submit, poll, fetch, cancel),
// understands the queue's backpressure protocol (429 + Retry-After),
// and can scrape /metrics into a flat map for assertions and load
// generators.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// QueueFullError is returned by Submit when the daemon rejected the
// job with 429; RetryAfter carries the server's suggested backoff.
type QueueFullError struct {
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("job queue full (retry after %v)", e.RetryAfter)
}

// APIError is any non-2xx response that is not queue backpressure.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("sparsedistd: HTTP %d: %s", e.Status, e.Message)
}

// Client talks to one sparsedistd instance.
type Client struct {
	base   string
	hc     *http.Client
	jitter func(max time.Duration) time.Duration
}

// New creates a client for the daemon at base (e.g.
// "http://127.0.0.1:8477"). A nil-safe default http.Client is used;
// swap it with SetHTTPClient for tests.
func New(base string) *Client {
	return &Client{
		base:   strings.TrimRight(base, "/"),
		hc:     &http.Client{Timeout: 60 * time.Second},
		jitter: fullJitter,
	}
}

// fullJitter returns a uniform random duration in (0, max] — the "full
// jitter" strategy: the whole interval is random, so a fleet of
// clients that all hit a full queue at once spreads its retries over
// the window instead of re-colliding at the same instant.
func fullJitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(max))) + 1
}

// sleepCtx sleeps d or returns ctx.Err() promptly — a client stuck in
// a Retry-After backoff must not outlive its context by the backoff.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		d = time.Millisecond
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// SetHTTPClient replaces the underlying HTTP client (httptest servers,
// custom transports).
func (c *Client) SetHTTPClient(hc *http.Client) { c.hc = hc }

// Submit enqueues one job and returns its id. A full queue returns
// *QueueFullError; invalid specs return *APIError with status 400, and
// a client_id already naming a different spec *APIError with 409.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return "", &QueueFullError{RetryAfter: retryAfter(resp)}
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", apiError(resp)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("sparsedistd: malformed submit response: %w", err)
	}
	return out.ID, nil
}

// SubmitRetry submits, backing off and retrying while the queue is
// full, until ctx expires. This is the well-behaved client loop the
// load generator uses: backpressure slows it down but loses nothing.
// The backoff is fully jittered: each sleep is uniform in (0, cap],
// where cap is the server's Retry-After when given and an
// exponentially growing local window otherwise — deterministic sleeps
// would march every rejected client back onto the queue in lockstep.
func (c *Client) SubmitRetry(ctx context.Context, spec server.JobSpec) (string, error) {
	const (
		baseWait = 50 * time.Millisecond
		maxWait  = 2 * time.Second
	)
	for attempt := 0; ; attempt++ {
		id, err := c.Submit(ctx, spec)
		var qf *QueueFullError
		if err == nil || !errors.As(err, &qf) {
			return id, err
		}
		window := qf.RetryAfter
		if window <= 0 {
			window = baseWait << uint(min(attempt, 5))
			if window > maxWait {
				window = maxWait
			}
		}
		if err := sleepCtx(ctx, c.jitter(window)); err != nil {
			return "", err
		}
	}
}

// Status fetches one job's current status.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.getJSON(ctx, "/jobs/"+id, &st)
	return st, err
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			return st, nil
		}
		timer := time.NewTimer(poll)
		select {
		case <-ctx.Done():
			timer.Stop()
			return st, ctx.Err()
		case <-timer.C:
		}
	}
}

// Cancel requests a job's cancellation and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/jobs/"+id, nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, apiError(resp)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.JobStatus{}, err
	}
	return st, nil
}

// Health probes /healthz; nil means the daemon is serving.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		msg := "unhealthy"
		var hr struct {
			Status string `json:"status"`
		}
		if json.Unmarshal(body, &hr) == nil && hr.Status != "" {
			msg = hr.Status // "draining" / "saturated" from the server
		}
		return &APIError{Status: resp.StatusCode, Message: msg}
	}
	return nil
}

// Metrics scrapes /metrics and returns a flat map keyed by the metric
// line's name-plus-labels exactly as exposed (e.g.
// `sparsedistd_jobs_total{state="done"}`).
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return ParseMetrics(resp.Body)
}

// ParseMetrics reads the Prometheus text format into a flat map.
// Comment and blank lines are skipped; the key is everything before the
// final space, so labelled series stay distinct.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sparsedistd: bad metric line %q: %w", line, err)
		}
		out[line[:i]] = val
	}
	return out, sc.Err()
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// apiError shapes a non-2xx response, preferring the server's JSON
// error message when present.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var je struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &je) == nil && je.Error != "" {
		msg = je.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg}
}

func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec >= 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return 0
}
