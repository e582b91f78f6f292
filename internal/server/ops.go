package server

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// The distributed compute layer of the service: a job carrying an "op"
// distributes its array as usual and then runs a sparsity-aware kernel
// on the distributed result — halo-exchange SpMV, Jacobi iteration or
// row-fetch SpGEMM (see internal/spops). The communication plan is
// derived from the local arrays' nonzero structure, so it is cached
// next to the distribution plan and reused across jobs with the same
// array and plan; the pooled machine executing it changes per job (the
// plan is machine-free by construction).

// defaultOpIters caps Jacobi sweeps when the spec leaves op_iters zero.
const defaultOpIters = 500

// runOp executes spec.Op on the freshly distributed array, fills the
// result's ops_* fields and counts the traffic into the metrics.
func (s *Server) runOp(spec JobSpec, g *sparse.Dense, pl *plan, m *machine.Machine, res *dist.Result, out *JobResult) error {
	// The comm plan is cached under the plan's key plus, always, the
	// array identity: it indexes the array's nonzero structure, so two
	// arrays of equal shape must not share one.
	key := pl.key
	key.array = specArrayKey(spec)
	cpl, hit, err := s.opPlans.getOrFill(key, func() (*spops.CommPlan, error) {
		return spops.BuildCommPlan(pl.Partition, res)
	})
	if err != nil {
		return fmt.Errorf("building comm plan: %w", err)
	}

	var st spops.OpStats
	switch spec.Op {
	case "spmv":
		_, st, err = spops.SpMV(m, cpl, spops.OpVector(g.Cols(), spec.Seed))
	case "jacobi":
		iters := spec.OpIters
		if iters == 0 {
			iters = defaultOpIters
		}
		_, st, err = spops.Jacobi(m, cpl, spops.OpVector(g.Rows(), spec.Seed+1), nil, 1e-9, iters)
	case "spgemm":
		// C = A·A: the synthetic arrays are square, so the array is its
		// own right-hand operand — no second array to generate or cache.
		_, st, err = spops.DistSpGEMM(m, cpl, compress.CompressCRS(g, nil))
	default:
		return fmt.Errorf("unknown op %q", spec.Op)
	}
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
