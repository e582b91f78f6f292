package compress

import (
	"repro/internal/cost"
	"repro/internal/sparse"
)

// CCS is a sparse array in Compressed Column Storage: the column-major
// dual of CRS. The paper's RO, CO, VL arrays for the CCS method
// correspond to ColPtr, RowIdx, Val.
//
// RowIdx normally holds local row indices, but immediately after CFS
// compression of a partitioned piece it holds *global* indices; see
// ShiftRows.
type CCS struct {
	Rows, Cols int
	ColPtr     []int // len Cols+1, ColPtr[0] == 0, non-decreasing
	RowIdx     []int // len NNZ, ascending within each column
	Val        []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CCS) NNZ() int { return len(m.Val) }

// CompressCCS compresses a dense array into CCS, charging the counter
// one operation per scanned element plus three per nonzero (the paper's
// rows*cols*(1+3s) accounting). It is CompressPart's scan over the
// whole array.
func CompressCCS(d *sparse.Dense, ctr *cost.Counter) *CCS {
	return ccsOf(scanLines(d, wholeAxis(d.Rows()), wholeAxis(d.Cols()), ColMajor, ctr))
}

// CompressCCSFromCOO builds a CCS from a COO. The COO is sorted
// column-major internally; duplicates are rejected.
func CompressCCSFromCOO(c *sparse.COO) (*CCS, error) {
	l, err := linesFromCOO(c, true)
	if err != nil {
		return nil, err
	}
	return ccsOf(l), nil
}

// Decompress materialises the CCS as a dense array. RowIdx must hold
// local indices (call ShiftRows first if they are global).
func (m *CCS) Decompress() *sparse.Dense {
	d := sparse.NewDense(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			d.Set(m.RowIdx[k], j, m.Val[k])
		}
	}
	return d
}

// At returns the element at (i, j) using binary search within the column.
func (m *CCS) At(i, j int) float64 { return m.lines().at(ccsAxes, j, i) }

// Validate checks the CCS structural invariants.
func (m *CCS) Validate() error { return m.lines().validate(ccsAxes) }

// Equal reports exact structural equality.
func (m *CCS) Equal(o *CCS) bool { return m.lines().equal(o.lines()) }

// Clone returns a deep copy.
func (m *CCS) Clone() *CCS { return ccsOf(m.lines().clone()) }

// ShiftRows subtracts delta from every row index, charging one operation
// per index. This is the receiver-side global-to-local conversion for
// CCS-compressed pieces: Case 3.2.2 (row partition, delta = rows owned by
// lower ranks) and Case 3.2.3 (mesh partition, delta = rows above in the
// same mesh column). Delta = 0 is Case 3.2.1 (no conversion).
func (m *CCS) ShiftRows(delta int, ctr *cost.Counter) { shiftMinor(m.RowIdx, delta, ctr) }
