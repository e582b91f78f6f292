package server

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// The distributed compute layer of the service: a job carrying an "op"
// runs a sparsity-aware kernel on its distributed array — halo-exchange
// SpMV, Jacobi iteration or row-fetch SpGEMM (see internal/spops). The
// communication plan is derived from the local arrays' nonzero
// structure and holds the distribution it indexes (CommPlan.Res), so
// it is cached next to the distribution plan and one entry is the op
// job's whole setup: a later job with the same array and plan takes
// both and runs only its op, on whatever pooled machine it holds (the
// plan is machine-free by construction). Distribution happens once,
// before any computation, as in the paper.

// distribute runs the job's distribution on m, or, for an op job,
// takes it from the op-plan cache. A hit (reused) distributed nothing:
// the cached run's result is a function of the array and the plan, so
// its counts are bit-identical to a re-run's. A check job never reads
// the cache, because the invariant checker checks a run: it
// distributes and builds its own comm plan. A job without an op gets
// no comm plan.
func (s *Server) distribute(j *job, cfg core.Config, pl *plan, g *sparse.Dense, m *machine.Machine) (res *dist.Result, cpl *spops.CommPlan, reused bool, err error) {
	run := pl.Plan
	run.Global = g
	run.Options.Workers, run.Options.Check, run.Options.Ctx = cfg.Workers, cfg.Check, j.ctx
	if j.spec.Op == "" {
		res, err = dist.Run(m, run)
		return res, nil, false, err
	}
	withPlan := func() (*spops.CommPlan, error) {
		res, err := dist.Run(m, run)
		if err != nil {
			return nil, err
		}
		cpl, err := spops.BuildCommPlan(pl.Partition, res)
		if err != nil {
			return nil, fmt.Errorf("building comm plan: %w", err)
		}
		return cpl, nil
	}
	if cfg.Check {
		cpl, err = withPlan()
	} else {
		// Keyed by the plan's key plus, always, the array identity: the
		// comm plan indexes the array's nonzero structure, so two arrays
		// of equal shape must not share one.
		key := pl.key
		key.array = specArrayKey(j.spec)
		cpl, reused, err = s.opPlans.getOrFill(key, withPlan)
	}
	if err != nil {
		return nil, nil, false, err
	}
	return cpl.Res, cpl, reused, nil
}

// runOp executes spec.Op on the distributed array through its comm
// plan, fills the result's ops_* fields and counts the traffic into
// the metrics. hit reports that the plan came from the cache.
func (s *Server) runOp(spec JobSpec, g *sparse.Dense, cpl *spops.CommPlan, hit bool, m *machine.Machine, out *JobResult) error {
	_, _, st, err := spops.RunOp(m, cpl, g, spec.Op, spec.Seed, spec.OpIters)
	if err != nil {
		return fmt.Errorf("op %s: %w", spec.Op, err)
	}

	out.Op = st.Op
	out.OpIterations = st.Iterations
	out.OpConverged = st.Converged
	out.OpPlanCacheHit = hit
	out.OpMessages = int64(st.Messages)
	out.OpWireWords = int64(st.WireWords)
	out.OpHaloWords = int64(st.HaloWords)
	out.OpBcastWords = int64(st.BcastWords)
	out.OpFlops = int64(st.Ops)
	s.metrics.opExecuted(spec.Op)
	s.metrics.opsWireWords.Add(int64(st.WireWords))
	s.metrics.opsBcastWords.Add(int64(st.BcastWords))
	return nil
}
