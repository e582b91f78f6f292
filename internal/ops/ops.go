// Package ops provides the sequential sparse kernels over the
// compressed formats (SpMV, SpGEMM, CG): the workloads for which
// the paper distributes and compresses sparse arrays in the first
// place, and the oracles the distributed layer (internal/spops) is
// diffed against. Its one distributed kernel, DistributedSpMV, is the
// root-broadcast reference for the halo exchange.
package ops

import (
	"fmt"
	"math"

	"repro/internal/compress"
)

// SpMV computes y = A·x for a local CRS array with local column indices.
// len(x) must equal A.Cols; the result has length A.Rows.
func SpMV(a *compress.CRS, x []float64) ([]float64, error) {
	if len(x) != a.Cols {
		return nil, fmt.Errorf("ops: SpMV: x has %d entries, want %d", len(x), a.Cols)
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = sum
	}
	return y, nil
}

// SpMVCCS computes y = A·x for a local CCS array.
func SpMVCCS(a *compress.CCS, x []float64) ([]float64, error) {
	if len(x) != a.Cols {
		return nil, fmt.Errorf("ops: SpMVCCS: x has %d entries, want %d", len(x), a.Cols)
	}
	y := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			y[a.RowIdx[k]] += a.Val[k] * xj
		}
	}
	return y, nil
}

// SpMVJDS computes y = A·x for a JDS array — the format's raison
// d'être: the inner loop runs down whole jagged diagonals, which
// vectorises on long arrays.
func SpMVJDS(a *compress.JDS, x []float64) ([]float64, error) {
	if len(x) != a.Cols {
		return nil, fmt.Errorf("ops: SpMVJDS: x has %d entries, want %d", len(x), a.Cols)
	}
	yPerm := make([]float64, a.Rows)
	for k := 0; k+1 < len(a.JDPtr); k++ {
		lo, hi := a.JDPtr[k], a.JDPtr[k+1]
		for t := lo; t < hi; t++ {
			yPerm[t-lo] += a.Val[t] * x[a.ColIdx[t]]
		}
	}
	y := make([]float64, a.Rows)
	for pos, orig := range a.Perm {
		y[orig] = yPerm[pos]
	}
	return y, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("ops: Dot: lengths %d and %d differ", len(a), len(b))
	}
	sum := 0.0
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum, nil
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("ops: Axpy: lengths %d and %d differ", len(x), len(y))
	}
	for i := range y {
		y[i] += alpha * x[i]
	}
	return nil
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}
