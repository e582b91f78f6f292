package main

// The load generator: N concurrent clients submit jobs against a live
// daemon, honouring backpressure (429 → jittered backoff and retry),
// then wait for every accepted job to finish. It proves the serving
// path end to end — zero lost, zero duplicated.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

type loadgenConfig struct {
	target        string
	jobs          int
	clients       int
	schemes       string
	n             int
	procs         int
	op            string // distributed compute op attached to every job
	assertMetrics bool
	assertAuto    bool
	assertOps     bool
}

type loadgenResult struct {
	id    string
	state server.JobState
	err   error
}

func runLoadgen(cfg loadgenConfig) error {
	if cfg.target == "" {
		return fmt.Errorf("-loadgen needs -target, the daemon's base URL")
	}
	if cfg.jobs < 1 || cfg.clients < 1 {
		return fmt.Errorf("-jobs and -clients must be positive")
	}
	schemes := splitList(cfg.schemes)
	for i := range schemes {
		schemes[i] = strings.ToUpper(schemes[i])
	}
	if len(schemes) == 0 {
		schemes = []string{"ED"}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	c := client.New(cfg.target)
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("daemon not healthy at %s: %w", cfg.target, err)
	}

	start := time.Now()
	results := runWorkers(cfg, func(i int) loadgenResult {
		id, err := c.SubmitRetry(ctx, server.JobSpec{
			N:      cfg.n,
			Scheme: schemes[i%len(schemes)],
			Procs:  cfg.procs,
			Seed:   1, // shared seed: repeated shapes exercise the caches
			Op:     cfg.op,
		})
		if err != nil {
			return loadgenResult{err: fmt.Errorf("job %d submit: %w", i, err)}
		}
		st, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			return loadgenResult{id: id, err: fmt.Errorf("job %s wait: %w", id, err)}
		}
		return loadgenResult{id: id, state: st.State}
	})
	if err := tallyResults(cfg, results, start); err != nil {
		return err
	}

	if cfg.assertMetrics || cfg.assertAuto || cfg.assertOps {
		if err := assertMetrics(ctx, c, cfg); err != nil {
			return err
		}
		fmt.Println("loadgen: metrics assertions passed")
	}
	return nil
}

// runWorkers fans cfg.jobs indices over cfg.clients goroutines.
func runWorkers(cfg loadgenConfig, run func(i int) loadgenResult) []loadgenResult {
	work := make(chan int)
	results := make(chan loadgenResult, cfg.jobs)
	var wg sync.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results <- run(i)
			}
		}()
	}
	for i := 0; i < cfg.jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	close(results)
	out := make([]loadgenResult, 0, cfg.jobs)
	for r := range results {
		out = append(out, r)
	}
	return out
}

// tallyResults enforces the loadgen contract: zero lost (every job
// errored or reached done) and zero duplicated (no job identity seen
// twice).
func tallyResults(cfg loadgenConfig, results []loadgenResult, start time.Time) error {
	counts := map[server.JobState]int{}
	seen := map[string]bool{}
	var failures []error
	for _, r := range results {
		if r.err != nil {
			failures = append(failures, r.err)
			continue
		}
		if seen[r.id] {
			failures = append(failures, fmt.Errorf("job id %s observed twice", r.id))
			continue
		}
		seen[r.id] = true
		counts[r.state]++
	}
	elapsed := time.Since(start)

	fmt.Printf("loadgen: %d jobs over %d clients in %v (%.1f jobs/s)\n",
		cfg.jobs, cfg.clients, elapsed.Round(time.Millisecond),
		float64(cfg.jobs)/elapsed.Seconds())
	fmt.Printf("loadgen: done %d, failed %d, canceled %d, errors %d\n",
		counts[server.StateDone], counts[server.StateFailed],
		counts[server.StateCanceled], len(failures))
	for _, err := range failures {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d jobs lost or errored", len(failures), cfg.jobs)
	}
	if counts[server.StateDone] != cfg.jobs {
		return fmt.Errorf("only %d of %d jobs completed done", counts[server.StateDone], cfg.jobs)
	}
	return nil
}

// assertMetrics scrapes /metrics and checks the counters a healthy run
// must have moved: all jobs done, plan cache hits observed (the whole
// point of the cache), machines reused, the array cache holding arrays
// within its byte budget — and, with -assert-auto, that auto jobs
// resolved plans.
func assertMetrics(ctx context.Context, c *client.Client, cfg loadgenConfig) error {
	m, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	atLeast := func(name string, want float64) error {
		if got := m[name]; got < want {
			return fmt.Errorf("metric %s = %g, want >= %g", name, got, want)
		}
		return nil
	}
	var checks []error
	if cfg.assertMetrics {
		checks = append(checks,
			atLeast(`sparsedistd_jobs_submitted_total`, float64(cfg.jobs)),
			atLeast(`sparsedistd_jobs_total{state="done"}`, float64(cfg.jobs)),
			atLeast(`sparsedistd_plan_cache_hits_total`, 1),
			atLeast(`sparsedistd_machines_reused_total`, 1),
			arraysWithinBudget(m),
		)
	}
	if cfg.assertAuto {
		checks = append(checks, assertAutoMetrics(m))
	}
	if cfg.assertOps {
		checks = append(checks,
			atLeast(fmt.Sprintf("sparsedistd_ops_total{op=%q}", cfg.op), float64(cfg.jobs)),
			atLeast(`sparsedistd_ops_plan_cache_hits_total`, 1),
			atLeast(`sparsedistd_ops_wire_words_total`, 1),
		)
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	return nil
}

// arraysWithinBudget checks that the array cache holds something and
// no more than its budget.
func arraysWithinBudget(m map[string]float64) error {
	held, budget := m[`sparsedistd_cache_bytes{cache="arrays"}`], m[`sparsedistd_cache_budget_bytes{cache="arrays"}`]
	if held <= 0 || held > budget {
		return fmt.Errorf("array cache holds %g bytes, want > 0 and <= its budget %g", held, budget)
	}
	return nil
}

// assertAutoMetrics checks that auto jobs resolved plans.
func assertAutoMetrics(m map[string]float64) error {
	var autoJobs float64
	for k, v := range m {
		if strings.HasPrefix(k, `sparsedistd_auto_jobs_total{`) {
			autoJobs += v
		}
	}
	if autoJobs < 1 {
		return fmt.Errorf("no auto jobs resolved (sparsedistd_auto_jobs_total absent)")
	}
	fmt.Printf("loadgen: auto assertions: %g auto jobs resolved\n", autoJobs)
	return nil
}
