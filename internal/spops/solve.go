package spops

import (
	"fmt"
	"math"

	"repro/internal/machine"
)

// maxOp folds scalar reduction operands.
func maxOp(acc, in []float64) {
	for i := range acc {
		if in[i] > acc[i] {
			acc[i] = in[i]
		}
	}
}

// requireSquare rejects plans whose array cannot feed y back as x.
func requireSquare(pl *CommPlan, op string) error {
	if pl.Rows != pl.Cols {
		return fmt.Errorf("spops: %s needs a square array, got %dx%d", op, pl.Rows, pl.Cols)
	}
	return nil
}

// Jacobi solves A·x = b by Jacobi iteration on the distributed
// array. Vector segments stay resident at their owners: each sweep
// is one halo exchange, a local multiply of each rank's part, a
// partial-sum route to the row owners, the pointwise Jacobi update
// x_i ← (b_i − (Ax)_i + A_ii·x_i)/A_ii, and a two-message-per-rank
// scalar allreduce for the convergence test — per-iteration traffic
// is O(halo + p), never O(n·p). The diagonal must be fully nonzero.
//
// x0 may be nil (zero start). Returns the solution assembled at the
// IO rank.
func Jacobi(m *machine.Machine, pl *CommPlan, b, x0 []float64, tol float64, maxIter int) ([]float64, OpStats, error) {
	if err := requireSquare(pl, "Jacobi"); err != nil {
		return nil, OpStats{}, err
	}
	if len(b) != pl.Rows {
		return nil, OpStats{}, fmt.Errorf("spops: Jacobi: b has %d entries, want %d", len(b), pl.Rows)
	}
	if x0 != nil && len(x0) != pl.Cols {
		return nil, OpStats{}, fmt.Errorf("spops: Jacobi: x0 has %d entries, want %d", len(x0), pl.Cols)
	}
	if maxIter <= 0 {
		return nil, OpStats{}, fmt.Errorf("spops: Jacobi: maxIter %d", maxIter)
	}
	for i, d := range pl.Diag {
		if d == 0 {
			return nil, OpStats{}, fmt.Errorf("spops: Jacobi: zero diagonal at row %d", i)
		}
	}
	if x0 == nil {
		x0 = make([]float64, pl.Cols)
	}

	e := pl.takeExec(m)
	defer pl.putExec(e)
	e.sweep = pl.sweepView()
	x := make([]float64, pl.Cols)
	var iters int
	var converged bool
	err := e.m.Run(func(pr *machine.Proc) error {
		st := e.st[pr.Rank]
		// Resident b segment: shipped once, like the x segments. The
		// diagonal segment comes from the plan (root-side metadata,
		// uncharged like the plan's index lists).
		if err := e.scatterSeg(pr, b, st.bSeg, tagFetch); err != nil {
			return err
		}
		if err := e.scatterX(pr, x0); err != nil {
			return err
		}
		diag := pl.Diag[st.ylo:st.yhi]

		it, conv := 0, false
		for it < maxIter {
			if err := e.halo(pr); err != nil {
				return err
			}
			e.compute(pr)
			if err := e.yRoute(pr); err != nil {
				return err
			}
			// Jacobi update on the owned (conformal) segment.
			maxDelta := 0.0
			for i := range st.xSeg {
				old := st.xSeg[i]
				next := (st.bSeg[i] - st.ySeg[i] + diag[i]*old) / diag[i]
				if d := math.Abs(next - old); d > maxDelta {
					maxDelta = d
				}
				st.xSeg[i] = next
			}
			it++
			red := st.red[:1]
			red[0] = maxDelta
			if err := e.allreduce(pr, red, maxOp); err != nil {
				return err
			}
			if red[0] < tol {
				conv = true
				break
			}
		}
		// Assemble the solution at the IO rank from the resident
		// segments (the x-cut equals the y-cut on a square array).
		if err := e.gatherXSeg(pr, x); err != nil {
			return err
		}
		if pr.Rank == ioRank {
			iters, converged = it, conv
		}
		return nil
	})
	if err != nil {
		return nil, OpStats{}, err
	}
	stats := e.stats("jacobi", iters)
	stats.Converged = converged
	return x, stats, nil
}

// scatterSeg ships each owner its y-cut slice of v from the IO rank
// into dst (used for the Jacobi right-hand side).
func (e *exec) scatterSeg(pr *machine.Proc, v, dst []float64, tagOff int) error {
	pl, st := e.pl, e.st[pr.Rank]
	if pr.Rank == ioRank {
		for r := 0; r < pl.P; r++ {
			lo, hi := pl.yRange(r)
			if r == ioRank {
				copy(dst, v[lo:hi])
				continue
			}
			if hi-lo == 0 {
				continue
			}
			if err := pr.Send(r, e.tag(tagOff), [4]int64{int64(lo)}, v[lo:hi], &st.wire); err != nil {
				return fmt.Errorf("spops: scatter seg to %d: %w", r, err)
			}
		}
		return nil
	}
	if st.yhi-st.ylo == 0 {
		return nil
	}
	msg, err := pr.RecvFrom(ioRank, e.tag(tagOff))
	if err != nil {
		return fmt.Errorf("spops: rank %d scatter seg recv: %w", pr.Rank, err)
	}
	copy(dst, msg.Data)
	return nil
}

// gatherXSeg collects the resident x segments at the IO rank into x.
func (e *exec) gatherXSeg(pr *machine.Proc, x []float64) error {
	pl, st := e.pl, e.st[pr.Rank]
	if pr.Rank != ioRank {
		if st.xhi-st.xlo == 0 {
			return nil
		}
		return pr.Send(ioRank, e.tag(tagGather), [4]int64{int64(st.xlo)}, st.xSeg, &st.wire)
	}
	copy(x[st.xlo:st.xhi], st.xSeg)
	for r := 0; r < pl.P; r++ {
		lo, hi := pl.xRange(r)
		if r == ioRank || hi-lo == 0 {
			continue
		}
		msg, err := pr.RecvFrom(r, e.tag(tagGather))
		if err != nil {
			return fmt.Errorf("spops: gather x from %d: %w", r, err)
		}
		copy(x[lo:hi], msg.Data)
	}
	return nil
}
