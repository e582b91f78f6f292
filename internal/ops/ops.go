// Package ops provides the sequential sparse kernels over the
// compressed formats (SpMV, SpGEMM, CG, RCM): the workloads for which
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

// SpMVT computes y = Aᵀ·x for a local CRS array; len(x) must equal
// A.Rows and the result has length A.Cols.
func SpMVT(a *compress.CRS, x []float64) ([]float64, error) {
	if len(x) != a.Rows {
		return nil, fmt.Errorf("ops: SpMVT: x has %d entries, want %d", len(x), a.Rows)
	}
	y := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			y[a.ColIdx[k]] += a.Val[k] * xi
		}
	}
	return y, nil
}

// Add returns a + b for CRS arrays of identical shape; entries that
// cancel exactly are dropped to preserve the no-explicit-zero invariant.
func Add(a, b *compress.CRS) (*compress.CRS, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("ops: Add: shapes %dx%d and %dx%d differ", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := &compress.CRS{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		ka, ea := a.RowPtr[i], a.RowPtr[i+1]
		kb, eb := b.RowPtr[i], b.RowPtr[i+1]
		for ka < ea || kb < eb {
			switch {
			case kb >= eb || (ka < ea && a.ColIdx[ka] < b.ColIdx[kb]):
				out.ColIdx = append(out.ColIdx, a.ColIdx[ka])
				out.Val = append(out.Val, a.Val[ka])
				ka++
			case ka >= ea || b.ColIdx[kb] < a.ColIdx[ka]:
				out.ColIdx = append(out.ColIdx, b.ColIdx[kb])
				out.Val = append(out.Val, b.Val[kb])
				kb++
			default: // equal columns
				if v := a.Val[ka] + b.Val[kb]; v != 0 {
					out.ColIdx = append(out.ColIdx, a.ColIdx[ka])
					out.Val = append(out.Val, v)
				}
				ka++
				kb++
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out, nil
}

// Scale returns alpha·a as a new CRS. Scaling by zero yields an empty
// array of the same shape.
func Scale(a *compress.CRS, alpha float64) *compress.CRS {
	if alpha == 0 {
		return &compress.CRS{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	}
	out := a.Clone()
	for k := range out.Val {
		out.Val[k] *= alpha
	}
	return out
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
