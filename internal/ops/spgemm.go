package ops

import (
	"fmt"
	"sort"

	"repro/internal/compress"
)

// SpGEMM computes the sparse product C = A·B of two CRS arrays using
// Gustavson's row-wise algorithm: for each row i of A, accumulate
// scaled rows of B into a sparse accumulator. Exact cancellations are
// dropped to preserve the no-explicit-zero invariant.
func SpGEMM(a, b *compress.CRS) (*compress.CRS, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("ops: SpGEMM: inner dimensions %d and %d differ", a.Cols, b.Rows)
	}
	out := &compress.CRS{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	acc := make(map[int]float64)
	cols := make([]int, 0, 64)
	for i := 0; i < a.Rows; i++ {
		clear(acc)
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			j := a.ColIdx[ka]
			av := a.Val[ka]
			for kb := b.RowPtr[j]; kb < b.RowPtr[j+1]; kb++ {
				acc[b.ColIdx[kb]] += av * b.Val[kb]
			}
		}
		cols = cols[:0]
		for c, v := range acc {
			if v != 0 {
				cols = append(cols, c)
			}
		}
		sort.Ints(cols)
		for _, c := range cols {
			out.ColIdx = append(out.ColIdx, c)
			out.Val = append(out.Val, acc[c])
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out, nil
}
