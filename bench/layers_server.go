package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/server"
)

// jobStats collects, job by job, what the traced job path observed at
// the client/server boundary: the caller's HTTP calls on one side, the
// server's own timestamps and result on the other.
type jobStats struct {
	mu                                          sync.Mutex
	submitUS, statusUS, queueMS, runMS, wrapMS  []float64
	resultBytes, polls, lagMS                   []float64
	arrayHitRatio, planHitRatio, opPlanHitRatio float64
}

func (s *jobStats) observe(st server.JobStatus, jt jobTrace) {
	if jt.polls == 0 || st.StartedAt == nil || st.FinishedAt == nil || st.Result == nil {
		return
	}
	run := st.FinishedAt.Sub(*st.StartedAt)
	var phases time.Duration
	for _, ph := range st.Result.Phases {
		phases += ph.Wall
	}
	body, _ := json.Marshal(st) // cannot fail: the status was decoded from JSON
	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitUS = append(s.submitUS, float64(jt.submit)/1e3)
	s.statusUS = append(s.statusUS, float64(jt.statusCall)/1e3)
	s.queueMS = append(s.queueMS, float64(st.StartedAt.Sub(st.SubmittedAt))/1e6)
	s.runMS = append(s.runMS, float64(run)/1e6)
	s.wrapMS = append(s.wrapMS, float64(run-phases)/1e6)
	s.resultBytes = append(s.resultBytes, float64(len(body)))
	s.polls = append(s.polls, float64(jt.polls))
	s.lagMS = append(s.lagMS, float64(jt.observedAt.Sub(*st.FinishedAt))/1e6)
}

// hitRatios turns two /metrics scrapes into the cache hit ratios of the
// jobs in between. A cache nothing asked (no op jobs) reports 0.
func (s *jobStats) hitRatios(before, after map[string]float64) {
	ratio := func(cache string) float64 {
		hits := after["sparsedistd_"+cache+"_cache_hits_total"] - before["sparsedistd_"+cache+"_cache_hits_total"]
		misses := after["sparsedistd_"+cache+"_cache_misses_total"] - before["sparsedistd_"+cache+"_cache_misses_total"]
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	s.arrayHitRatio, s.planHitRatio, s.opPlanHitRatio = ratio("array"), ratio("plan"), ratio("ops_plan")
}

// serverLayer reports the server and client metrics. A daemon workload
// brings the statistics of its own traced window; a library workload
// sends probeJobs jobs of its own shape and plan through a fresh daemon
// (the first is cold, the rest hit the caches).
func (s *suite) serverLayer(jobs *jobStats) error {
	d := startDaemon()
	defer d.close()
	if jobs == nil {
		cfg, g := s.p.cfg.Normalized(), s.p.g
		spec := server.JobSpec{N: g.Rows(), Ratio: g.SparseRatio(), Seed: s.p.seed + 1000, Scheme: cfg.Scheme,
			Partition: cfg.Partition, Method: cfg.Method, Procs: cfg.Procs, MeshRows: cfg.MeshRows, MeshCols: cfg.MeshCols, Op: "spmv"}
		jobs = &jobStats{}
		tr := newTracer()
		before, err := d.cl.Metrics(context.Background())
		if err != nil {
			return err
		}
		for i := 0; i < probeJobs; i++ {
			st, _, jt, err := d.runJob(spec, tr.op(i))
			if err != nil {
				return err
			}
			if st.State != server.StateDone {
				return fmt.Errorf("probe job ended %s: %s", st.State, st.Error)
			}
			jobs.observe(st, jt)
		}
		after, err := d.cl.Metrics(context.Background())
		if err != nil {
			return err
		}
		jobs.hitRatios(before, after)
	}
	if len(jobs.polls) == 0 {
		return fmt.Errorf("no job statistics collected")
	}
	for name, v := range map[string]struct {
		xs   []float64
		unit string
	}{
		"server.submit_us": {jobs.submitUS, "us"}, "server.status_us": {jobs.statusUS, "us"},
		"server.queue_wait_ms": {jobs.queueMS, "ms"}, "server.run_ms": {jobs.runMS, "ms"},
		"server.wrapper_ms": {jobs.wrapMS, "ms"}, "server.result_bytes": {jobs.resultBytes, "bytes"},
		"client.polls_per_job": {jobs.polls, "count"}, "client.observe_lag_ms": {jobs.lagMS, "ms"},
	} {
		s.m[name] = metricDoc{Value: median(v.xs), Unit: v.unit}
	}
	s.m["server.array_hit_ratio"] = metricDoc{Value: jobs.arrayHitRatio, Unit: "ratio"}
	s.m["server.plan_hit_ratio"] = metricDoc{Value: jobs.planHitRatio, Unit: "ratio"}
	s.m["server.op_plan_hit_ratio"] = metricDoc{Value: jobs.opPlanHitRatio, Unit: "ratio"}

	// Floor: the smallest job the daemon accepts, through the same client.
	floorSpec := server.JobSpec{N: 1, Ratio: 1, Procs: 1}
	return s.floor("server.floor_job_us", "us", func() (float64, error) {
		st, lat, _, err := d.runJob(floorSpec, nil)
		if err == nil && st.State != server.StateDone {
			err = fmt.Errorf("floor job ended %s: %s", st.State, st.Error)
		}
		return float64(lat) / 1e3, err
	})
}
