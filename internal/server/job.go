package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/spops"
	"repro/internal/trace"
)

// JobSpec is the wire form of one distribution request — a JSON mirror
// of the sparsedist CLI's flags (and of core.Config's per-plan fields).
// Zero values take the same defaults the CLI applies.
type JobSpec struct {
	// N, Ratio, Seed describe the synthetic input array (N×N with
	// sparse ratio Ratio, generated from Seed). Defaults: 200, 0.1, 1.
	N     int     `json:"n,omitempty"`
	Ratio float64 `json:"ratio,omitempty"`
	Seed  int64   `json:"seed,omitempty"`

	// Scheme is SFC, CFS or ED (default ED), or "auto" to let the server
	// pick the plan from the array's measured statistics with the cost
	// model: a pure function of the array and the server's config. Auto
	// jobs must leave Method empty (the model picks it; Partition may
	// still pin a partition). The job dedups on the literal "auto" spec; the
	// resolved plan comes back in the result's chosen_* fields.
	Scheme string `json:"scheme,omitempty"`
	// Partition is row, col, mesh, cyclic-row, cyclic-col, brs,
	// cyclic-mesh, balanced-row or an HPF descriptor (default row;
	// empty under scheme auto means the model picks).
	Partition string `json:"partition,omitempty"`
	// Procs is the processor count (default 4), capped by the server's
	// admission limit.
	Procs int `json:"procs,omitempty"`
	// MeshRows/MeshCols pin the mesh grid; zero picks the most square
	// factorisation of Procs.
	MeshRows int `json:"mesh_rows,omitempty"`
	MeshCols int `json:"mesh_cols,omitempty"`
	// Block is the block size for brs / cyclic-mesh (default 1).
	Block int `json:"block,omitempty"`
	// Method is CRS, CCS or JDS (default CRS).
	Method string `json:"method,omitempty"`
	// Workers is how many goroutines encode the root's parts (1: the
	// root alone; n: the root plus n-1 helpers; 0: one per CPU).
	Workers int `json:"workers,omitempty"`
	// Check runs the invariant checker during the run.
	Check bool `json:"check,omitempty"`

	// Op, when set, additionally computes on the distributed array with
	// the halo-exchange engine: "spmv" (y = A·x), "jacobi" (solve
	// A·x = b; the synthetic array is made diagonally dominant so the
	// iteration converges) or "spgemm" (C = A·A, row-fetch). The
	// communication plan is cached next to the distribution plan, with
	// the distribution it indexes: a repeat of the same array and plan
	// runs only the op (op_plan_cache_hit). The traffic comes back in
	// the result's ops_* fields.
	Op string `json:"op,omitempty"`
	// OpIters caps the Jacobi sweep count (default 500). Only valid
	// with op "jacobi".
	OpIters int `json:"op_iters,omitempty"`

	// ClientID is an optional client-generated idempotency key. A
	// resubmission of the same spec carrying a ClientID the server
	// already accepted maps to the existing job instead of enqueuing a
	// duplicate, for as long as that job is in the history (see
	// Config.MaxJobHistory) — how a client retries a lost response
	// without running the job twice. The same ClientID with a different
	// spec is refused with 409 Conflict.
	ClientID string `json:"client_id,omitempty"`
}

// config is the one translation of a JobSpec into the core.Config
// vocabulary: the spec's plan fields plus the node-level settings every
// job on this server shares. Validation, defaults, auto resolution and
// plan building all start from it.
func (s JobSpec) config(node Config) core.Config {
	return core.Config{
		Scheme:      s.Scheme,
		Partition:   s.Partition,
		Procs:       s.Procs,
		MeshRows:    s.MeshRows,
		MeshCols:    s.MeshCols,
		BlockSize:   s.Block,
		Method:      s.Method,
		Workers:     s.Workers,
		Check:       s.Check,
		Params:      node.Params,
		Topology:    node.Topology,
		LinkBW:      node.LinkBW,
		LinkLatency: node.LinkLatency,
		RecvTimeout: node.RecvTimeout,
	}
}

// withDefaults resolves the spec's zero values to the service defaults:
// the input array's here, the plan's from core's default table (under
// AUTO an empty partition/method stays empty — "the model picks"). The
// mesh grid is echoed as sent: the job status carries it verbatim, so
// it is kept out of the normalisation, which would fold it into procs.
func (s JobSpec) withDefaults() JobSpec {
	if s.N == 0 {
		s.N = 200
	}
	if s.Ratio == 0 {
		s.Ratio = 0.1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	c := s.config(Config{})
	c.MeshRows, c.MeshCols = 0, 0
	c = c.Normalized()
	s.Scheme, s.Partition, s.Procs, s.Method, s.Block = c.Scheme, c.Partition, c.Procs, c.Method, c.BlockSize
	s.Op = strings.ToLower(s.Op)
	return s
}

// validate rejects bad requests up front with one clear error each:
// what a valid plan request is comes from core.Config.Validate, in its
// words; what only the service knows — the input array, the admission
// limits, the op rules, and the policy that auto picks its own method —
// is checked here.
func (s JobSpec) validate(limits Limits) error {
	if err := s.config(Config{}).Validate(); err != nil {
		return err
	}
	if s.N < 1 {
		return fmt.Errorf("n %d: array size must be positive", s.N)
	}
	if s.N > limits.MaxN {
		return fmt.Errorf("n %d: exceeds the server's limit of %d", s.N, limits.MaxN)
	}
	if s.Ratio < 0 || s.Ratio > 1 {
		return fmt.Errorf("ratio %g: sparse ratio must be in [0, 1]", s.Ratio)
	}
	if s.Procs > limits.MaxProcs {
		return fmt.Errorf("procs %d: exceeds the server's limit of %d", s.Procs, limits.MaxProcs)
	}
	// Each dimension first: the product of two huge dimensions can wrap
	// around to something small.
	if s.MeshRows > limits.MaxProcs || s.MeshCols > limits.MaxProcs || s.MeshRows*s.MeshCols > limits.MaxProcs {
		return fmt.Errorf("mesh %dx%d: grid exceeds the server's processor limit of %d", s.MeshRows, s.MeshCols, limits.MaxProcs)
	}
	if core.IsAutoScheme(s.Scheme) {
		if s.Method != "" {
			return fmt.Errorf("method %q with scheme auto: auto picks the method; omit it or pick the scheme explicitly", s.Method)
		}
	}
	if len(s.ClientID) > 128 {
		return fmt.Errorf("client_id %d bytes long: limit is 128", len(s.ClientID))
	}
	if !spops.ValidOp(s.Op) {
		return fmt.Errorf("op %q: want %s", s.Op, spops.OpNames())
	}
	if s.OpIters < 0 {
		return fmt.Errorf("op_iters %d: cannot be negative", s.OpIters)
	}
	if s.OpIters > 100000 {
		return fmt.Errorf("op_iters %d: limit is 100000", s.OpIters)
	}
	if s.OpIters > 0 && s.Op != "jacobi" {
		return fmt.Errorf("op_iters with op %q: only jacobi iterates; drop op_iters", s.Op)
	}
	return nil
}

// JobState is one job's lifecycle position.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is distributing it.
	StateRunning JobState = "running"
	// StateDone: finished; Result is populated.
	StateDone JobState = "done"
	// StateFailed: the run errored; Error is populated.
	StateFailed JobState = "failed"
	// StateCanceled: cancelled before or during the run.
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobResult is the payload of a finished job.
type JobResult struct {
	Scheme    string `json:"scheme"`
	Partition string `json:"partition"`
	Method    string `json:"method"`
	Procs     int    `json:"procs"`
	Rows      int    `json:"rows"`
	Cols      int    `json:"cols"`
	// NNZ counts what the parts hold (dist.Result.NNZ).
	NNZ int `json:"nnz"`

	// The paper's phase split: virtual (cost-model) and wall durations.
	// Wall is 0 when the job reused a cached distribution
	// (OpPlanCacheHit): it distributed nothing.
	Phases []trace.PhaseStat `json:"phases"`

	// Wire totals of the root's distribution phase.
	Messages int64 `json:"messages"`
	Elements int64 `json:"elements"`

	// Network-model timing, populated when the server runs with a
	// topology (Config.Topology): the discrete-event replay's phase
	// estimates in nanoseconds, which unlike the flat virtual clock see
	// link contention and queueing. They replay this job's distribution
	// before any op runs, so on an OpPlanCacheHit, which distributed
	// nothing, they stay unset.
	Topology        string        `json:"topology,omitempty"`
	NetDistribution time.Duration `json:"net_distribution_ns,omitempty"`
	NetCompression  time.Duration `json:"net_compression_ns,omitempty"`
	NetMakespan     time.Duration `json:"net_makespan_ns,omitempty"`
	NetQueued       time.Duration `json:"net_queued_ns,omitempty"`

	// Auto-tuning provenance (JobSpec.Scheme "auto"): the plan the cost
	// model chose and what it predicted, to be read against the actual
	// virtual phase times in Phases, or under a topology against the
	// Net* replay.
	Auto                  bool          `json:"auto,omitempty"`
	ChosenScheme          string        `json:"chosen_scheme,omitempty"`
	ChosenPartition       string        `json:"chosen_partition,omitempty"`
	ChosenMethod          string        `json:"chosen_method,omitempty"`
	ChosenWorkers         int           `json:"chosen_workers,omitempty"`
	PredictedDistribution time.Duration `json:"predicted_distribution_ns,omitempty"`
	PredictedCompression  time.Duration `json:"predicted_compression_ns,omitempty"`
	// PredictionError is |predicted - actual| / actual over the total
	// time of this run, on the clock the prediction was priced on: the
	// flat virtual phases, or under a topology the job's replay of its
	// distribution. Unset on an op job that reused its distribution,
	// which replayed only its op.
	PredictionError float64 `json:"prediction_error,omitempty"`

	// Distributed-op results (JobSpec.Op): what the halo-exchange
	// compute layer did and moved. OpWireWords is the point-to-point
	// traffic actually charged; OpBcastWords is the per-sweep
	// broadcast-equivalent payload it replaced, so wire < bcast is the
	// sparsity win made visible per job.
	Op           string `json:"op,omitempty"`
	OpIterations int    `json:"op_iterations,omitempty"`
	OpConverged  bool   `json:"op_converged,omitempty"`
	OpMessages   int64  `json:"op_messages,omitempty"`
	OpWireWords  int64  `json:"op_wire_words,omitempty"`
	OpHaloWords  int64  `json:"op_halo_words,omitempty"`
	OpBcastWords int64  `json:"op_bcast_words,omitempty"`
	OpFlops      int64  `json:"op_flops,omitempty"`
	// OpPlanCacheHit reports that the comm plan came from the cache,
	// and with it the distribution it indexes: the distribution was not
	// re-run. The counts above (phases' Virtual, messages, elements,
	// nnz) are the cached run's, bit-identical to a re-run of the same
	// spec; only the phases' Wall (0) and the net_* replay differ.
	OpPlanCacheHit bool `json:"op_plan_cache_hit,omitempty"`

	// Cache provenance of this run's plan.
	PlanCacheHit  bool `json:"plan_cache_hit"`
	ArrayCacheHit bool `json:"array_cache_hit"`
}

// JobStatus is the wire form of GET /jobs/{id}.
type JobStatus struct {
	ID          string     `json:"id"`
	State       JobState   `json:"state"`
	Spec        JobSpec    `json:"spec"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
}

// job is the server-side job record. All mutable fields are guarded by
// mu; the context cancels the run when the job is cancelled.
type job struct {
	id   string
	spec JobSpec

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     JobState
	err       string
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newJob(id string, spec JobSpec) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{id: id, spec: spec, ctx: ctx, cancel: cancel,
		state: StateQueued, submitted: time.Now()}
}

// tryStart moves queued → running; false means the job was cancelled
// while queued and must not run.
func (j *job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records a terminal state; returns false if the job already
// reached one (a cancel racing a completion).
func (j *job) finish(state JobState, errMsg string, res *JobResult) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = state
	j.err = errMsg
	j.result = res
	j.finished = time.Now()
	return true
}

// requestCancel cancels the job's context and, when it is still
// queued, marks it canceled immediately (the worker will skip it).
// Returns true when this call made the job canceled.
func (j *job) requestCancel() bool {
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.finished = time.Now()
		return true
	}
	return false
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Spec:        j.spec,
		Error:       j.err,
		SubmittedAt: j.submitted,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}
