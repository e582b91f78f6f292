package partition

import (
	"errors"
	"fmt"

	"repro/internal/sparse"
)

// ErrBadPartCount is returned (wrapped) when a partition is asked for a
// non-positive number of parts.
var ErrBadPartCount = errors.New("part count must be positive")

// NewBalancedRow builds an nnz-balanced contiguous row partition of g
// into p parts — a nonuniform row partition in the spirit of the
// paper's reference [5] (Berger & Bokhari, "A Partitioning Strategy for
// Nonuniform Problems on Multiprocessors"): contiguous row blocks whose
// boundaries are chosen so every part holds roughly the same number of
// *nonzeros* rather than the same number of rows. For skewed arrays
// this drives the paper's s' (the busiest rank's ratio) toward s,
// shrinking the parallel compression/decode terms of every scheme.
//
// Because blocks stay contiguous and span all columns, the paper's
// Case 3.2.1/3.3.1 index conversions apply unchanged. The boundaries
// come from a greedy prefix-sum sweep: one is placed as soon as the
// running nonzero count reaches the ideal share.
func NewBalancedRow(g *sparse.Dense, p int) (*Grid, error) {
	if g == nil {
		return nil, fmt.Errorf("partition: balanced-row: nil array")
	}
	return NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), p)
}

// NewBalancedRowFromCounts is NewBalancedRow from a per-row nonzero
// histogram instead of a materialized array — the form a streaming
// count pass (sparse.ScanStats) produces. The boundary sweep is shared,
// so a streamed plan lands on exactly the rows a materialized plan
// would.
//
// Degenerate histograms stay valid: an all-zero histogram falls back to
// one row per part (remainder to the last part), p > rows yields
// leading empty parts, and a single huge row simply owns its block.
// NumParts() == p always holds; p <= 0 returns an error wrapping
// ErrBadPartCount, and a negative count is rejected.
func NewBalancedRowFromCounts(rowNNZ []int, cols, p int) (*Grid, error) {
	if p <= 0 {
		return nil, fmt.Errorf("partition: balanced-row: part count %d: %w", p, ErrBadPartCount)
	}
	rows := len(rowNNZ)
	if err := checkDims(rows, cols); err != nil {
		return nil, fmt.Errorf("partition: balanced-row: %w", err)
	}
	total := 0
	for i, n := range rowNNZ {
		if n < 0 {
			return nil, fmt.Errorf("partition: balanced-row: negative nonzero count %d at row %d", n, i)
		}
		total += n
	}

	starts := make([]int, p+1)
	r := 0
	acc := 0
	for k := 0; k < p; k++ {
		starts[k] = r
		// Ideal cumulative share after part k.
		target := float64(total) * float64(k+1) / float64(p)
		// Leave enough rows for the remaining parts to be non-empty
		// when possible, and always advance at least one row if any
		// remain.
		remainingParts := p - k - 1
		for r < rows-remainingParts {
			next := acc + rowNNZ[r]
			// Stop before overshooting the target, unless the part is
			// still empty.
			if r > starts[k] && float64(next) > target && float64(next)-target > target-float64(acc) {
				break
			}
			acc = next
			r++
			if float64(acc) >= target {
				break
			}
		}
	}
	starts[p] = rows
	return &Grid{"balanced-row", cutAxis(starts), cutAxis([]int{0, cols})}, nil
}
