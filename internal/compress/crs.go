// Package compress implements the data compression phase of the paper:
// the Compressed Row Storage (CRS) and Compressed Column Storage (CCS)
// formats, the ED scheme's special encode/decode buffers, wire
// packing/unpacking for the CFS scheme, and the global-to-local index
// conversions of Cases 3.2.1-3.2.3 and 3.3.1-3.3.3.
//
// Convention: this package uses 0-based indices and a 0-based pointer
// array (RowPtr[0] = 0), the standard CSR convention, where the paper
// uses Fortran-style 1-based arrays (RO[0] = 1). Counts and invariants
// are identical; the worked-example tests compare against the paper's
// figures via the documented +1 shift.
package compress

import (
	"sync"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// CRS is a sparse array in Compressed Row Storage. The paper's arrays
// RO, CO, VL correspond to RowPtr, ColIdx, Val.
//
// ColIdx normally holds local column indices, but immediately after CFS
// compression of a partitioned piece it holds *global* indices; see
// ShiftCols and the Case 3.2.x helpers.
type CRS struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1, RowPtr[0] == 0, non-decreasing
	ColIdx     []int // len NNZ, ascending within each row
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CRS) NNZ() int { return len(m.Val) }

// CompressCRS compresses a dense array into CRS, charging the counter in
// the paper's accounting: one operation per scanned element plus three
// operations per nonzero (the RO/CO/VL writes), i.e. rows*cols*(1+3s)
// total — the T_Compression term of Tables 1 and 2. The scan appends
// the nonzeros into pooled scratch and copies them out once, so the
// result's arrays are allocated at their size and never alias the pool.
func CompressCRS(d *sparse.Dense, ctr *cost.Counter) *CRS {
	rows, cols := d.Rows(), d.Cols()
	s := crsScratch.Get().(*CRS)
	s.ColIdx, s.Val = s.ColIdx[:0], s.Val[:0]
	m := &CRS{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			if v != 0 {
				s.ColIdx = append(s.ColIdx, j)
				s.Val = append(s.Val, v)
				ctr.AddOps(3)
			}
		}
		m.RowPtr[i+1] = len(s.Val)
		ctr.AddOps(cols)
	}
	m.ColIdx = make([]int, len(s.ColIdx))
	copy(m.ColIdx, s.ColIdx)
	m.Val = make([]float64, len(s.Val))
	copy(m.Val, s.Val)
	crsScratch.Put(s)
	return m
}

// crsScratch holds the index and value arrays CompressCRS appends
// into, grown to the most nonzeros its user has scanned.
var crsScratch = sync.Pool{New: func() any { return new(CRS) }}

// CompressCRSFromCOO builds a CRS from a COO. The COO is sorted row-major
// internally; duplicates must have been removed.
func CompressCRSFromCOO(c *sparse.COO) (*CRS, error) {
	l, err := linesFromCOO(c, false)
	if err != nil {
		return nil, err
	}
	return crsOf(l), nil
}

// Decompress materialises the CRS as a dense array. ColIdx must hold
// local indices (call ShiftCols first if they are global).
func (m *CRS) Decompress() *sparse.Dense {
	d := sparse.NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}

// At returns the element at (i, j) using binary search within the row.
func (m *CRS) At(i, j int) float64 { return m.lines().at(crsAxes, i, j) }

// RowNNZ returns the number of nonzeros in row i.
func (m *CRS) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Validate checks the CRS structural invariants: pointer array shape and
// monotonicity, index ranges, ascending column order within rows, and
// no explicit zeros.
func (m *CRS) Validate() error { return m.lines().validate(crsAxes) }

// Equal reports exact structural equality.
func (m *CRS) Equal(o *CRS) bool { return m.lines().equal(o.lines()) }

// Clone returns a deep copy.
func (m *CRS) Clone() *CRS { return crsOf(m.lines().clone()) }

// ShiftCols subtracts delta from every column index, charging one
// operation per index. This is the receiver-side conversion of global to
// local indices: Case 3.2.2 (column partition, delta = columns owned by
// lower ranks) and Case 3.2.3 (mesh partition, delta = columns to the
// left in the same mesh row). Case 3.2.1 is delta = 0 (no conversion).
func (m *CRS) ShiftCols(delta int, ctr *cost.Counter) { shiftMinor(m.ColIdx, delta, ctr) }
