package core

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/spops"
)

// Distributed compute on a finished distribution. These wrap the spops
// halo-exchange engine, the only distributed-kernel layer: the first op
// builds a CommPlan from the local compressed arrays' column support,
// and every later op on the same distribution reuses it, so an
// iterative solver pays the plan cost once and O(halo) traffic per
// iteration instead of a root broadcast.

// CommPlan returns the halo-exchange communication plan for this
// distribution, building it on first use. The plan is pure index
// structure (no machine state), so it is also safe to cache externally
// and execute on a different pooled machine with the same processor
// count.
func (d *Distribution) CommPlan() (*spops.CommPlan, error) {
	d.commOnce.Do(func() {
		d.commPlan, d.commErr = spops.BuildCommPlan(d.Partition, d.Result)
	})
	return d.commPlan, d.commErr
}

// Jacobi solves A·x = b by Jacobi iteration over the distributed array
// (A must be square with a zero-free diagonal; convergence needs it
// diagonally dominant). Each iteration is one halo exchange plus one
// scalar allreduce.
func (d *Distribution) Jacobi(b []float64, tol float64, maxIter int) ([]float64, spops.OpStats, error) {
	pl, err := d.CommPlan()
	if err != nil {
		return nil, spops.OpStats{}, err
	}
	return spops.Jacobi(d.m, pl, b, nil, tol, maxIter)
}

// SpGEMM computes C = A·B where A is the distributed array and B a
// compressed global operand: each rank fetches only the B-rows its
// local A-part references (Gustavson's algorithm locally).
func (d *Distribution) SpGEMM(b *compress.CRS) (*compress.CRS, spops.OpStats, error) {
	pl, err := d.CommPlan()
	if err != nil {
		return nil, spops.OpStats{}, err
	}
	return spops.DistSpGEMM(d.m, pl, b)
}

// OpStatsString renders op statistics for reports and logs.
func OpStatsString(st spops.OpStats) string {
	return fmt.Sprintf("%s: %d msgs, %d wire words (halo %d vs broadcast %d), %d flops, %d iterations",
		st.Op, st.Messages, st.WireWords, st.HaloWords, st.BcastWords, st.Ops, st.Iterations)
}
