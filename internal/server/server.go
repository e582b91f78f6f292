// Package server turns the distribution engine into a long-lived
// service: sparsedistd. Jobs arrive as JSON over HTTP, wait in a
// bounded queue (backpressure: 429 + Retry-After when full), and run on
// a worker pool that drives dist.Run over pooled emulated machines,
// reusing cached plans (partition + codec) and cached input arrays
// across requests. The observability surface is /healthz, /jobs/{id}
// (status plus the paper-style phase table) and /metrics in the
// Prometheus text format — all hand-rolled, no dependencies.
//
// Lifecycle: Drain stops admission (503), lets the workers finish every
// accepted job, then releases the machine pool — the SIGTERM path of
// cmd/sparsedistd. Cancelling one job (DELETE /jobs/{id}) cancels its
// context; a running distribution aborts between parts and its machine
// returns to the pool drained, not poisoned.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spops"
	"repro/internal/trace"
)

// Limits are the admission caps enforced on every JobSpec.
type Limits struct {
	// MaxN caps the synthetic array size (default 4096).
	MaxN int
	// MaxProcs caps the processor count (default 64).
	MaxProcs int
}

// Config sizes the server.
type Config struct {
	// QueueDepth bounds the job queue (default 256). A submit that
	// finds the queue full is rejected with 429 and a Retry-After.
	QueueDepth int
	// Workers is the worker pool size (default 4).
	Workers int
	// Limits are the admission caps (defaults per Limits).
	Limits Limits
	// RecvTimeout is the pooled machines' receive watchdog (default 30s).
	RecvTimeout time.Duration
	// PoolIdle bounds idle machines kept per processor count (default:
	// Workers).
	PoolIdle int
	// MaxJobHistory bounds the finished-job records kept for /jobs
	// lookups (default 10000). Oldest terminal jobs are evicted first.
	MaxJobHistory int
	// Params are the virtual clock unit costs used for the reported
	// phase tables (default cost.DefaultParams).
	Params cost.Params
	// Topology attaches the contention-aware network model to every
	// pooled machine: uniform, bus, star, mesh or fattree (empty: no
	// model). Finished jobs then also report the discrete-event replay's
	// phase estimates. See internal/simnet.
	Topology string
	// LinkBW overrides the topology's bottleneck-link bandwidth in
	// payload words/s (0: the cost model's 1/T_Data).
	LinkBW float64
	// LinkLatency overrides the bottleneck links' per-message latency
	// (0: the cost model's T_Startup).
	LinkLatency time.Duration
	// RefineAlpha is the EWMA weight of one observation in the auto-
	// tuning refiner: each served scheme=auto job folds its
	// actual-vs-predicted phase ratio into future predictions with this
	// weight (0 or out of (0, 1]: calibrate.DefaultRefineAlpha).
	RefineAlpha float64
	// RefineStatePath, when set, persists the refiner's learned
	// corrections across restarts: Drain atomically writes the EWMA
	// state there (temp file + rename) after the last worker exits.
	// Load it at boot with LoadRefineState — the daemon wires both
	// ends to its -refine-state flag.
	RefineStatePath string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Limits.MaxN == 0 {
		c.Limits.MaxN = 4096
	}
	if c.Limits.MaxProcs == 0 {
		c.Limits.MaxProcs = 64
	}
	if c.RecvTimeout == 0 {
		c.RecvTimeout = 30 * time.Second
	}
	if c.PoolIdle == 0 {
		c.PoolIdle = c.Workers
	}
	if c.MaxJobHistory == 0 {
		c.MaxJobHistory = 10000
	}
	if c.Params == (cost.Params{}) {
		c.Params = cost.DefaultParams
	}
	return c
}

// Server is the distribution service. Create with New, mount via
// Handler (it implements http.Handler), stop with Drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	plans   *cache[planKey, *plan]
	arrays  *cache[arrayKey, *sparse.Dense]
	stats   *cache[arrayKey, costmodel.ArrayStats]
	opPlans *cache[planKey, *spops.CommPlan]
	refiner *calibrate.Refiner
	pool    *machinePool

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string          // submission order, for history eviction and listing
	dedup    map[string]string // client job ID -> server job ID (idempotent resubmit)
	draining bool

	queue  chan *job
	wg     sync.WaitGroup
	nextID atomic.Int64
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.start()
	return s
}

// newServer builds the server without starting workers — the white-box
// test seam for deterministic queue-full and cancel-while-queued cases.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: newMetrics(),
		plans:   newCache[planKey](planCacheCap, one[*plan]),
		arrays:  newCache[arrayKey](arrayCacheBytes, denseBytes),
		stats:   newCache[arrayKey](statsCacheCap, one[costmodel.ArrayStats]),
		opPlans: newCache[planKey](opPlanCacheBytes, commPlanBytes),
		refiner: calibrate.NewRefiner(cfg.RefineAlpha),
		jobs:    make(map[string]*job),
		dedup:   make(map[string]string),
		queue:   make(chan *job, cfg.QueueDepth),
	}
	// The zero spec's config is the node-level half alone: what every
	// pooled machine is built from, whatever job it later serves.
	s.pool = newMachinePool(cfg.PoolIdle, JobSpec{}.config(cfg), s.metrics)

	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// start launches the worker pool.
func (s *Server) start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain gracefully shuts the server down: new submissions get 503,
// every job already accepted — queued or running — runs to completion,
// then the machine pool is released. Bounded by ctx; a second call is a
// no-op that still waits.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.pool.close()
		// Every worker has exited, so the refiner is quiescent: this
		// is the one moment the EWMA state can be snapshotted without
		// racing an Observe.
		if s.cfg.RefineStatePath != "" {
			if err := s.refiner.Save(s.cfg.RefineStatePath); err != nil {
				return fmt.Errorf("server: persist refine state: %w", err)
			}
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// LoadRefineState restores refiner corrections saved by a previous
// run's Drain (see Config.RefineStatePath). A missing file is a cold
// start, not an error; a corrupt file is an error so a bad state
// never silently degrades predictions. Call it at boot, before
// serving traffic.
func (s *Server) LoadRefineState(path string) error {
	return s.refiner.Load(path)
}

// Close force-stops: every pending job is cancelled, then the drain
// completes (quickly, since cancelled runs abort between parts).
func (s *Server) Close() error {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.cancelJob(j)
	}
	return s.Drain(context.Background())
}

// cancelJob requests a job's cancellation, counting the transition when
// this call is the one that cancelled it.
func (s *Server) cancelJob(j *job) {
	if j.requestCancel() {
		s.metrics.canceled.Add(1)
	}
}

// worker consumes the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end: cached array, cached plan, pooled
// machine, dist.Run with the job's context (or, for an op job, the
// cached distribution), terminal bookkeeping. A panic fails the job.
func (s *Server) runJob(j *job) {
	if !j.tryStart() {
		return // cancelled while queued; already counted
	}
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	res, err := s.contained(j)
	var state JobState
	var errMsg string
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, context.Canceled):
		state = StateCanceled
	default:
		state = StateFailed
		errMsg = err.Error()
	}
	if j.finish(state, errMsg, res) {
		j.mu.Lock()
		dur := j.finished.Sub(j.started)
		j.mu.Unlock()
		s.metrics.jobFinished(state, j.spec.Scheme, dur)
	}
}

// contained runs execute and turns a panic into the job's error, so a
// bad job fails alone instead of ending the daemon. Deferred cleanup
// inside execute (a pooled machine's return through pool.put's drain)
// runs while the panic unwinds, before it is recovered here.
func (s *Server) contained(j *job) (res *JobResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.metrics.jobPanics.Add(1)
			res, err = nil, fmt.Errorf("job panicked: %v", p)
		}
	}()
	return s.execute(j)
}

// execute runs the distribution (an op job's may come from the op-plan
// cache, see distribute) and the op, and shapes the result payload.
func (s *Server) execute(j *job) (*JobResult, error) {
	spec := j.spec
	g, arrayHit := s.arrayFor(spec)
	// scheme=auto resolves here, in the worker: the spec deduped on the
	// literal "AUTO", and only the worker knows the array's measured
	// statistics and the refiner's corrections.
	cfg := spec.config(s.cfg)
	var auto *core.AutoChoice
	if core.IsAutoScheme(cfg.Scheme) {
		var err error
		cfg, auto, err = core.ResolveAutoStats(s.statsFor(spec, g), cfg, s.refiner.Adjust)
		if err != nil {
			return nil, fmt.Errorf("auto plan selection: %w", err)
		}
		s.metrics.autoResolved(auto.Scheme)
	}
	cfg = cfg.Normalized()
	pl, planHit, err := s.planFor(spec, cfg, g, auto != nil)
	if err != nil {
		return nil, err
	}

	m, err := s.pool.get(pl.Partition.NumParts())
	if err != nil {
		return nil, err
	}
	defer s.pool.put(m)

	res, cpl, reused, err := s.distribute(j, cfg, pl, g, m)
	if err != nil {
		return nil, err
	}

	out := s.newJobResult(res, pl, planHit, !reused)
	out.Rows, out.Cols, out.NNZ, out.ArrayCacheHit = g.Rows(), g.Cols(), res.NNZ(), arrayHit
	if auto != nil {
		s.recordAuto(out, auto)
	}
	// The compute op runs on the same pooled machine while it is still
	// held, before the network timing snapshot, so the op's halo traffic
	// shows up in the job's timeline.
	if cpl != nil {
		if err := s.runOp(spec, g, cpl, reused, m, out); err != nil {
			return nil, err
		}
	}
	attachMachineReport(out, m)
	return out, nil
}

// newJobResult shapes the part of the payload every finished job
// shares: the plan as run, the paper's phase split and the root's wire
// totals. distributed is false when res was reused from the cache:
// the counts are the run's, but this job spent no wall time on it.
// The caller adds the array's shape and cache provenance.
func (s *Server) newJobResult(res *dist.Result, pl *plan, planHit, distributed bool) *JobResult {
	bd := res.Breakdown
	phases := []trace.PhaseStat{
		{Name: "T_Distribution", Virtual: bd.DistributionTime(s.cfg.Params)},
		{Name: "T_Compression", Virtual: bd.CompressionTime(s.cfg.Params)},
	}
	if distributed {
		phases[0].Wall, phases[1].Wall = bd.WallDistribution(), bd.WallCompression()
	}
	return &JobResult{
		Scheme:       res.Scheme,
		Partition:    res.Partition,
		Method:       res.Method.String(),
		Procs:        pl.Partition.NumParts(),
		Phases:       phases,
		PhaseTable:   trace.PhaseTable(phases),
		Messages:     bd.RootDist.Messages,
		Elements:     bd.RootDist.Elements,
		PlanCacheHit: planHit,
	}
}

// recordAuto pins the chosen plan and its prediction into the result
// and folds the observed virtual phase times back into the refiner.
func (s *Server) recordAuto(out *JobResult, auto *core.AutoChoice) {
	out.Auto = true
	out.ChosenScheme = auto.Scheme
	out.ChosenPartition = auto.Partition
	out.ChosenMethod = auto.Method
	out.ChosenWorkers = auto.Workers
	out.PredictedDistribution = auto.Predicted.Distribution
	out.PredictedCompression = auto.Predicted.Compression
	actual := costmodel.Estimate{Distribution: out.Phases[0].Virtual, Compression: out.Phases[1].Virtual}
	if actual.Total() > 0 {
		diff := auto.Predicted.Total() - actual.Total()
		if diff < 0 {
			diff = -diff
		}
		out.PredictionError = float64(diff) / float64(actual.Total())
	}
	s.refiner.Observe(auto.Scheme, auto.Predicted, actual)
}

// attachMachineReport copies what the pooled machine recorded of the
// job into the result: the network model's replayed phase estimates
// when the machine carries one (Config.Topology).
func attachMachineReport(out *JobResult, m *machine.Machine) {
	net := m.Network()
	if net == nil {
		return
	}
	tl := net.Finalize()
	pb := tl.PaperBreakdown()
	out.Topology = tl.Topology
	out.NetDistribution = pb.Distribution
	out.NetCompression = pb.Compression
	out.NetMakespan = tl.Makespan
	out.NetQueued = tl.TotalQueue()
}

// handleSubmit is POST /jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed job spec: %w", err))
		return
	}
	spec = spec.withDefaults()
	if err := spec.validate(s.cfg.Limits); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.draining.Add(1)
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	// Idempotent resubmission: a client job ID already accepted maps to
	// its existing job instead of enqueuing a duplicate, so a client
	// retrying a lost response does not run the job twice. The entry
	// lives exactly as long as its job (evictHistoryLocked drops both),
	// so the job is always there to answer from. The same ID with a
	// different spec is a client bug, not a retry: answering it with
	// the held job would hand back another array's result.
	if spec.ClientID != "" {
		if id, ok := s.dedup[spec.ClientID]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			if j.spec != spec {
				writeError(w, http.StatusConflict, fmt.Errorf(
					"client_id %q: already names job %s, submitted with a different spec", spec.ClientID, id))
				return
			}
			s.metrics.dedupHits.Add(1)
			j.mu.Lock()
			state := j.state
			j.mu.Unlock()
			writeJSON(w, http.StatusAccepted, map[string]any{
				"id": id, "state": string(state), "deduped": true,
			})
			return
		}
	}
	j := newJob(fmt.Sprintf("j-%06d", s.nextID.Add(1)), spec)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if spec.ClientID != "" {
			s.dedup[spec.ClientID] = j.id
		}
		s.evictHistoryLocked()
		s.mu.Unlock()
		s.metrics.submitted.Add(1)
		writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "state": string(StateQueued)})
	default:
		s.mu.Unlock()
		j.cancel()
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, errors.New("job queue is full; retry later"))
	}
}

// evictHistoryLocked trims the oldest terminal jobs past the history
// cap. Active jobs are never evicted, so the map can transiently exceed
// the cap under extreme backlogs — by at most the queue depth.
func (s *Server) evictHistoryLocked() {
	for len(s.jobs) > s.cfg.MaxJobHistory && len(s.order) > 0 {
		id := s.order[0]
		j, ok := s.jobs[id]
		if ok {
			j.mu.Lock()
			terminal := j.state.terminal()
			j.mu.Unlock()
			if !terminal {
				return
			}
			delete(s.jobs, id)
			// Drop the dedup entry with its job: a resubmit after
			// eviction re-runs, which is the documented at-least-once
			// floor (the table is bounded by the history, not unbounded).
			if cid := j.spec.ClientID; cid != "" && s.dedup[cid] == id {
				delete(s.dedup, cid)
			}
		}
		s.order = s.order[1:]
	}
}

// handleGet is GET /jobs/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleCancel is DELETE /jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status())
}

// handleList is GET /jobs: submission-ordered job summaries.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type summary struct {
		ID     string   `json:"id"`
		State  JobState `json:"state"`
		Scheme string   `json:"scheme"`
	}
	s.mu.Lock()
	out := make([]summary, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			j.mu.Lock()
			out = append(out, summary{ID: j.id, State: j.state, Scheme: j.spec.Scheme})
			j.mu.Unlock()
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// HealthReply is the GET /healthz body: status "ok" (200) while
// serving, or a 503 with the degradation reason — "draining" during
// shutdown, "saturated" when the queue is full — so a load balancer
// can take the node out of rotation before requests start bouncing.
type HealthReply struct {
	Status        string `json:"status"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	reply := HealthReply{
		Status:        "ok",
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
	}
	code := http.StatusOK
	switch {
	case draining:
		reply.Status = "draining"
		code = http.StatusServiceUnavailable
	case reply.QueueDepth >= reply.QueueCapacity:
		reply.Status = "saturated"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, reply)
}

// handleMetrics is GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, gauges{
		queueDepth:    len(s.queue),
		queueCapacity: s.cfg.QueueDepth,
		workers:       s.cfg.Workers,
		poolIdle:      s.pool.idleCount(),
		draining:      draining,
		auto:          s.refiner.Stats(),
		arrays:        s.arrays.snapshot("arrays"),
		stats:         s.stats.snapshot("stats"),
		plans:         s.plans.snapshot("plans"),
		opPlans:       s.opPlans.snapshot("op_plans"),
	})
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
