package compress

import (
	"fmt"
	"slices"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// JDS is Jagged Diagonal Storage, one of the "other data compression
// methods" from the Templates book [4] that the paper's future work (1)
// targets. Rows are permuted by decreasing nonzero count; the k-th
// nonzero of every (permuted) row forms the k-th jagged diagonal, stored
// contiguously. JDS vectorises SpMV on long arrays and is included here
// to let the distribution schemes be analysed against a third format.
type JDS struct {
	Rows, Cols int
	Perm       []int // Perm[i] = original row index of permuted position i
	JDPtr      []int // len maxRowNNZ+1; start of each jagged diagonal
	ColIdx     []int // len NNZ, diagonal-major
	Val        []float64
}

// NNZ returns the stored nonzero count.
func (m *JDS) NNZ() int { return len(m.Val) }

// MaxRowNNZ returns the number of jagged diagonals, len(JDPtr)-1 — the
// value the sender puts in the message header.
func (m *JDS) MaxRowNNZ() int { return len(m.JDPtr) - 1 }

// CompressJDS compresses a dense array into JDS: the CRS scan, re-laid
// as jagged diagonals. Charging matches the paper's convention for the
// other formats: one operation per scanned element plus three per
// nonzero, plus one per row for the permutation bookkeeping.
func CompressJDS(d *sparse.Dense, ctr *cost.Counter) *JDS {
	crs := CompressCRS(d, ctr)
	ctr.AddOps(d.Rows()) // permutation bookkeeping
	return CRSToJDS(crs)
}

// Decompress materialises the JDS as a dense array.
func (m *JDS) Decompress() *sparse.Dense {
	d := sparse.NewDense(m.Rows, m.Cols)
	for k := 0; k+1 < len(m.JDPtr); k++ {
		for t := m.JDPtr[k]; t < m.JDPtr[k+1]; t++ {
			pos := t - m.JDPtr[k] // permuted row position within the diagonal
			d.Set(m.Perm[pos], m.ColIdx[t], m.Val[t])
		}
	}
	return d
}

// Validate checks the JDS structural invariants: a valid permutation,
// monotone diagonal pointers with non-increasing diagonal lengths,
// in-range column indices and no explicit zeros.
func (m *JDS) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("compress: JDS negative shape %dx%d", m.Rows, m.Cols)
	}
	if len(m.Perm) != m.Rows {
		return fmt.Errorf("compress: JDS Perm len %d, want %d", len(m.Perm), m.Rows)
	}
	seen := make([]bool, m.Rows)
	for _, p := range m.Perm {
		if p < 0 || p >= m.Rows || seen[p] {
			return fmt.Errorf("compress: JDS Perm is not a permutation (row %d)", p)
		}
		seen[p] = true
	}
	if len(m.JDPtr) == 0 {
		return fmt.Errorf("compress: JDS JDPtr empty")
	}
	if m.JDPtr[0] != 0 {
		return fmt.Errorf("compress: JDS JDPtr[0] = %d, want 0", m.JDPtr[0])
	}
	if m.JDPtr[len(m.JDPtr)-1] != len(m.Val) {
		return fmt.Errorf("compress: JDS JDPtr[last] = %d, want nnz %d", m.JDPtr[len(m.JDPtr)-1], len(m.Val))
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("compress: JDS ColIdx len %d != Val len %d", len(m.ColIdx), len(m.Val))
	}
	prevLen := m.Rows + 1
	for k := 0; k+1 < len(m.JDPtr); k++ {
		l := m.JDPtr[k+1] - m.JDPtr[k]
		if l < 0 {
			return fmt.Errorf("compress: JDS JDPtr decreases at diagonal %d", k)
		}
		if l > prevLen {
			return fmt.Errorf("compress: JDS diagonal %d longer than previous (%d > %d)", k, l, prevLen)
		}
		if l > m.Rows {
			return fmt.Errorf("compress: JDS diagonal %d longer than row count", k)
		}
		prevLen = l
	}
	for t, j := range m.ColIdx {
		if j < 0 || j >= m.Cols {
			return fmt.Errorf("compress: JDS col index %d out of range at %d", j, t)
		}
		if m.Val[t] == 0 {
			return fmt.Errorf("compress: JDS explicit zero at %d", t)
		}
	}
	return nil
}

// CRSToJDS converts a CRS array to JDS without touching the dense form.
func CRSToJDS(c *CRS) *JDS {
	m := &JDS{Rows: c.Rows, Cols: c.Cols, Perm: make([]int, c.Rows)}
	for i := range m.Perm {
		m.Perm[i] = i
	}
	slices.SortStableFunc(m.Perm, func(a, b int) int { return c.RowNNZ(b) - c.RowNNZ(a) })
	maxNNZ := 0
	if c.Rows > 0 {
		maxNNZ = c.RowNNZ(m.Perm[0])
	}
	m.JDPtr = make([]int, maxNNZ+1)
	m.ColIdx, m.Val = make([]int, 0, c.NNZ()), make([]float64, 0, c.NNZ())
	for k := 0; k < maxNNZ; k++ {
		m.JDPtr[k] = len(m.Val)
		for pos := 0; pos < c.Rows; pos++ {
			orig := m.Perm[pos]
			if c.RowNNZ(orig) <= k {
				break
			}
			t := c.RowPtr[orig] + k
			m.ColIdx = append(m.ColIdx, c.ColIdx[t])
			m.Val = append(m.Val, c.Val[t])
		}
	}
	m.JDPtr[maxNNZ] = len(m.Val)
	return m
}

// JDSToCRS converts back to CRS.
func JDSToCRS(m *JDS) *CRS {
	// Count per original row.
	counts := make([]int, m.Rows)
	for k := 0; k+1 < len(m.JDPtr); k++ {
		for t := m.JDPtr[k]; t < m.JDPtr[k+1]; t++ {
			counts[m.Perm[t-m.JDPtr[k]]]++
		}
	}
	out := &CRS{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		out.RowPtr[i+1] = out.RowPtr[i] + counts[i]
	}
	out.ColIdx = make([]int, m.NNZ())
	out.Val = make([]float64, m.NNZ())
	next := make([]int, m.Rows)
	copy(next, out.RowPtr[:m.Rows])
	for k := 0; k+1 < len(m.JDPtr); k++ {
		for t := m.JDPtr[k]; t < m.JDPtr[k+1]; t++ {
			i := m.Perm[t-m.JDPtr[k]]
			out.ColIdx[next[i]] = m.ColIdx[t]
			out.Val[next[i]] = m.Val[t]
			next[i]++
		}
	}
	return out
}
