package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calibrate"
)

// Hand-rolled metrics in the Prometheus text exposition format — no
// client library, just atomic counters and fixed-bucket histograms.
// Everything sparsedistd exposes on /metrics lives here.

// metrics is the server's counter set. All fields are atomics; the
// histogram map is fixed at construction (one per scheme), so reads
// need no lock.
type metrics struct {
	submitted atomic.Int64 // accepted into the queue
	rejected  atomic.Int64 // turned away with 429 (queue full)
	draining  atomic.Int64 // turned away with 503 (shutting down)

	done     atomic.Int64
	failed   atomic.Int64
	canceled atomic.Int64

	inflight  atomic.Int64 // jobs currently inside a worker
	jobPanics atomic.Int64 // jobs failed by a panic the worker recovered

	machinesCreated atomic.Int64
	machinesReused  atomic.Int64
	drainedFrames   atomic.Int64 // stale frames dropped returning machines to the pool

	dedupHits atomic.Int64 // resubmissions answered from the client-job-ID table

	opsWireWords  atomic.Int64 // point-to-point words the compute ops moved
	opsBcastWords atomic.Int64 // broadcast-equivalent words those ops replaced

	histMu sync.Mutex
	hists  map[string]*histogram // per-scheme job latency

	autoMu   sync.Mutex
	autoJobs map[string]int64 // auto jobs by resolved scheme

	opsMu   sync.Mutex
	opsJobs map[string]int64 // distributed ops executed, by op
}

func newMetrics() *metrics {
	return &metrics{
		hists:    make(map[string]*histogram),
		autoJobs: make(map[string]int64),
		opsJobs:  make(map[string]int64),
	}
}

// opExecuted counts one distributed op of the given kind.
func (m *metrics) opExecuted(op string) {
	m.opsMu.Lock()
	m.opsJobs[op]++
	m.opsMu.Unlock()
}

// autoResolved counts one scheme=auto job resolved to the given scheme.
func (m *metrics) autoResolved(scheme string) {
	m.autoMu.Lock()
	m.autoJobs[scheme]++
	m.autoMu.Unlock()
}

// jobFinished records a terminal transition and, for completed jobs,
// the run latency under the scheme's histogram.
func (m *metrics) jobFinished(state JobState, scheme string, d time.Duration) {
	switch state {
	case StateDone:
		m.done.Add(1)
		m.hist(scheme).observe(d)
	case StateFailed:
		m.failed.Add(1)
	case StateCanceled:
		m.canceled.Add(1)
	}
}

func (m *metrics) hist(scheme string) *histogram {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	h, ok := m.hists[scheme]
	if !ok {
		h = newHistogram()
		m.hists[scheme] = h
	}
	return h
}

// latencyBuckets are the histogram upper bounds in seconds; +Inf is
// implicit as the final count.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket cumulative histogram: counts[i] tallies
// observations <= latencyBuckets[i]; inf tallies everything.
type histogram struct {
	counts []atomic.Int64
	inf    atomic.Int64
	sumNs  atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets))}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.counts[i].Add(1)
		}
	}
	h.inf.Add(1)
	h.sumNs.Add(int64(d))
}

// gauges carries the point-in-time values the server samples at scrape
// time (the queue is the server's, not the metrics set's).
type gauges struct {
	queueDepth    int
	queueCapacity int
	workers       int
	poolIdle      int
	draining      bool
	// auto is the refiner's per-scheme snapshot (already sorted by
	// scheme), sampled at scrape time.
	auto []calibrate.RefineSchemeStats
	// The server's caches, sampled at scrape time.
	arrays, stats, plans, opPlans cacheSnapshot
}

// cacheSnapshot is one cache's counters and occupancy. bytes and budget
// are in the cache's size unit: bytes for arrays and op_plans, entries
// for stats and plans.
type cacheSnapshot struct {
	name                string
	bytes, budget       int64
	hits, misses        int64
	evictions, uncached int64
}

// write renders the full exposition. The format is the Prometheus text
// format, version 0.0.4 — counters first, then gauges, then the
// per-scheme latency histograms.
func (m *metrics) write(w io.Writer, g gauges) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("sparsedistd_jobs_submitted_total", "Jobs accepted into the queue.", m.submitted.Load())
	counter("sparsedistd_jobs_rejected_total", "Jobs rejected with 429 because the queue was full.", m.rejected.Load())
	counter("sparsedistd_jobs_refused_draining_total", "Jobs refused with 503 during shutdown drain.", m.draining.Load())
	fmt.Fprintf(w, "# HELP sparsedistd_jobs_total Finished jobs by terminal state.\n# TYPE sparsedistd_jobs_total counter\n")
	fmt.Fprintf(w, "sparsedistd_jobs_total{state=\"done\"} %d\n", m.done.Load())
	fmt.Fprintf(w, "sparsedistd_jobs_total{state=\"failed\"} %d\n", m.failed.Load())
	fmt.Fprintf(w, "sparsedistd_jobs_total{state=\"canceled\"} %d\n", m.canceled.Load())
	counter("sparsedistd_job_panics_total", "Jobs failed by a panic the worker recovered.", m.jobPanics.Load())

	counter("sparsedistd_plan_cache_hits_total", "Plan cache hits (partition + codec reused).", g.plans.hits)
	counter("sparsedistd_plan_cache_misses_total", "Plan cache misses (partition built).", g.plans.misses)
	counter("sparsedistd_array_cache_hits_total", "Input array cache hits.", g.arrays.hits)
	counter("sparsedistd_array_cache_misses_total", "Input array cache misses (array generated).", g.arrays.misses)
	caches := []cacheSnapshot{g.arrays, g.stats, g.plans, g.opPlans}
	perCache := func(name, typ, help string, v func(cacheSnapshot) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, c := range caches {
			fmt.Fprintf(w, "%s{cache=%q} %d\n", name, c.name, v(c))
		}
	}
	perCache("sparsedistd_cache_evictions_total", "counter", "Entries evicted to make room for a new one.",
		func(c cacheSnapshot) int64 { return c.evictions })
	perCache("sparsedistd_cache_uncached_total", "counter", "Fills served but not stored because they alone exceed the budget.",
		func(c cacheSnapshot) int64 { return c.uncached })
	counter("sparsedistd_machines_created_total", "Emulated machines built for the pool.", m.machinesCreated.Load())
	counter("sparsedistd_machines_reused_total", "Jobs served by a pooled machine.", m.machinesReused.Load())
	counter("sparsedistd_machine_drained_frames_total", "Stale frames dropped when returning machines to the pool.", m.drainedFrames.Load())
	counter("sparsedistd_dedup_hits_total", "Resubmissions answered from the client-job-ID dedup table.", m.dedupHits.Load())

	m.opsMu.Lock()
	opNames := make([]string, 0, len(m.opsJobs))
	for op := range m.opsJobs {
		opNames = append(opNames, op)
	}
	sort.Strings(opNames)
	opCounts := make([]int64, len(opNames))
	for i, op := range opNames {
		opCounts[i] = m.opsJobs[op]
	}
	m.opsMu.Unlock()
	if len(opNames) > 0 {
		fmt.Fprintf(w, "# HELP sparsedistd_ops_total Distributed compute ops executed, by op.\n# TYPE sparsedistd_ops_total counter\n")
		for i, op := range opNames {
			fmt.Fprintf(w, "sparsedistd_ops_total{op=%q} %d\n", op, opCounts[i])
		}
	}
	counter("sparsedistd_ops_plan_cache_hits_total", "Comm-plan cache hits (halo plan reused).", g.opPlans.hits)
	counter("sparsedistd_ops_plan_cache_misses_total", "Comm-plan cache misses (halo plan derived).", g.opPlans.misses)
	counter("sparsedistd_ops_wire_words_total", "Point-to-point words moved by distributed compute ops.", m.opsWireWords.Load())
	counter("sparsedistd_ops_broadcast_equiv_words_total", "Broadcast-equivalent words the halo exchange replaced.", m.opsBcastWords.Load())

	m.autoMu.Lock()
	autoSchemes := make([]string, 0, len(m.autoJobs))
	for sc := range m.autoJobs {
		autoSchemes = append(autoSchemes, sc)
	}
	sort.Strings(autoSchemes)
	autoCounts := make([]int64, len(autoSchemes))
	for i, sc := range autoSchemes {
		autoCounts[i] = m.autoJobs[sc]
	}
	m.autoMu.Unlock()
	if len(autoSchemes) > 0 {
		fmt.Fprintf(w, "# HELP sparsedistd_auto_jobs_total Auto-tuned jobs by the scheme the cost model resolved.\n# TYPE sparsedistd_auto_jobs_total counter\n")
		for i, sc := range autoSchemes {
			fmt.Fprintf(w, "sparsedistd_auto_jobs_total{scheme=%q} %d\n", sc, autoCounts[i])
		}
	}
	if len(g.auto) > 0 {
		fmt.Fprintf(w, "# HELP sparsedistd_auto_prediction_error EWMA relative error of the served auto predictions, per scheme and phase.\n# TYPE sparsedistd_auto_prediction_error gauge\n")
		for _, st := range g.auto {
			fmt.Fprintf(w, "sparsedistd_auto_prediction_error{scheme=%q,phase=\"distribution\"} %g\n", st.Scheme, st.ErrDist)
			fmt.Fprintf(w, "sparsedistd_auto_prediction_error{scheme=%q,phase=\"compression\"} %g\n", st.Scheme, st.ErrComp)
		}
		fmt.Fprintf(w, "# HELP sparsedistd_auto_scale Current multiplicative correction the refiner applies to raw model estimates.\n# TYPE sparsedistd_auto_scale gauge\n")
		for _, st := range g.auto {
			fmt.Fprintf(w, "sparsedistd_auto_scale{scheme=%q,phase=\"distribution\"} %g\n", st.Scheme, st.ScaleDist)
			fmt.Fprintf(w, "sparsedistd_auto_scale{scheme=%q,phase=\"compression\"} %g\n", st.Scheme, st.ScaleComp)
		}
		fmt.Fprintf(w, "# HELP sparsedistd_auto_observations_total Predicted-vs-actual observations folded into the refiner, per scheme.\n# TYPE sparsedistd_auto_observations_total counter\n")
		for _, st := range g.auto {
			fmt.Fprintf(w, "sparsedistd_auto_observations_total{scheme=%q} %d\n", st.Scheme, st.Observations)
		}
	}

	gauge("sparsedistd_queue_depth", "Jobs waiting in the queue.", int64(g.queueDepth))
	gauge("sparsedistd_queue_capacity", "Queue capacity.", int64(g.queueCapacity))
	gauge("sparsedistd_workers", "Worker goroutines.", int64(g.workers))
	gauge("sparsedistd_jobs_inflight", "Jobs currently executing.", m.inflight.Load())
	gauge("sparsedistd_pool_idle_machines", "Idle machines in the pool.", int64(g.poolIdle))
	var dr int64
	if g.draining {
		dr = 1
	}
	gauge("sparsedistd_draining", "1 while the server is draining for shutdown.", dr)
	perCache("sparsedistd_cache_bytes", "gauge", "What each cache holds, in bytes for arrays and op_plans and in entries for stats and plans.",
		func(c cacheSnapshot) int64 { return c.bytes })
	perCache("sparsedistd_cache_budget_bytes", "gauge", "Each cache's bound, in the unit of sparsedistd_cache_bytes.",
		func(c cacheSnapshot) int64 { return c.budget })

	m.histMu.Lock()
	schemes := make([]string, 0, len(m.hists))
	for s := range m.hists {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	hists := make([]*histogram, len(schemes))
	for i, s := range schemes {
		hists[i] = m.hists[s]
	}
	m.histMu.Unlock()

	if len(schemes) > 0 {
		fmt.Fprintf(w, "# HELP sparsedistd_job_duration_seconds Completed job run latency by scheme.\n# TYPE sparsedistd_job_duration_seconds histogram\n")
	}
	for i, s := range schemes {
		h := hists[i]
		for bi, ub := range latencyBuckets {
			fmt.Fprintf(w, "sparsedistd_job_duration_seconds_bucket{scheme=%q,le=%q} %d\n",
				s, trimFloat(ub), h.counts[bi].Load())
		}
		fmt.Fprintf(w, "sparsedistd_job_duration_seconds_bucket{scheme=%q,le=\"+Inf\"} %d\n", s, h.inf.Load())
		fmt.Fprintf(w, "sparsedistd_job_duration_seconds_sum{scheme=%q} %g\n",
			s, time.Duration(h.sumNs.Load()).Seconds())
		fmt.Fprintf(w, "sparsedistd_job_duration_seconds_count{scheme=%q} %d\n", s, h.inf.Load())
	}
}

// trimFloat renders a bucket bound the way Prometheus conventionally
// writes them (no trailing zeros: 0.005, not 0.005000).
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
