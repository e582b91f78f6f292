package compress

import (
	"fmt"

	"repro/internal/cost"
)

// Wire and conversion support that lets JDS serve as a third compression
// method for the distribution schemes (the paper's future work (1)).
//
// Pack layout: [ Perm (rows words) | JDPtr (d+1 words) | ColIdx (nnz) |
// Val (nnz) ], with the diagonal count d carried in the message header
// alongside the shape.

// PackJDS serialises a JDS into a flat word buffer, charging one
// operation per word.
func PackJDS(m *JDS, ctr *cost.Counter) []float64 {
	return m.PackInto(nil, ctr)
}

// PackInto implements PartArray: PackJDS's layout appended to buf.
func (m *JDS) PackInto(buf []float64, ctr *cost.Counter) []float64 {
	start := len(buf)
	for _, p := range m.Perm {
		buf = append(buf, float64(p))
	}
	for _, p := range m.JDPtr {
		buf = append(buf, float64(p))
	}
	for _, j := range m.ColIdx {
		buf = append(buf, float64(j))
	}
	buf = append(buf, m.Val...)
	ctr.AddOps(len(buf) - start)
	return buf
}

// UnpackJDS deserialises a buffer produced by PackJDS. diagonals is the
// header's diagonal count. ColIdx may still hold global indices;
// validation is deferred to the caller.
func UnpackJDS(buf []float64, rows, cols, diagonals int, ctr *cost.Counter) (*JDS, error) {
	if rows < 0 || cols < 0 || diagonals < 0 {
		return nil, fmt.Errorf("compress: UnpackJDS negative shape/diagonals")
	}
	head := rows + diagonals + 1
	if len(buf) < head {
		return nil, fmt.Errorf("compress: UnpackJDS buffer %d words, need %d header", len(buf), head)
	}
	// Pre-read nnz from the last JDPtr word and length-check before
	// allocating, then carve Perm, JDPtr and ColIdx out of one backing
	// array: one index allocation per unpacked part instead of three.
	nnz, err := wordToCount(buf[head-1])
	if err != nil {
		return nil, fmt.Errorf("compress: UnpackJDS JDPtr[%d]: %w", diagonals, err)
	}
	if len(buf) != head+2*nnz {
		return nil, fmt.Errorf("compress: UnpackJDS buffer length %d, want %d", len(buf), head+2*nnz)
	}
	ints := make([]int, rows+diagonals+1+nnz)
	m := &JDS{Rows: rows, Cols: cols,
		Perm:   ints[:rows:rows],
		JDPtr:  ints[rows:head:head],
		ColIdx: ints[head:]}
	for i := 0; i < rows; i++ {
		v, err := wordToCount(buf[i])
		if err != nil {
			return nil, fmt.Errorf("compress: UnpackJDS Perm[%d]: %w", i, err)
		}
		m.Perm[i] = v
	}
	for i := 0; i <= diagonals; i++ {
		v, err := wordToCount(buf[rows+i])
		if err != nil {
			return nil, fmt.Errorf("compress: UnpackJDS JDPtr[%d]: %w", i, err)
		}
		m.JDPtr[i] = v
	}
	for k := 0; k < nnz; k++ {
		v, err := wordToIndex(buf[head+k])
		if err != nil {
			return nil, fmt.Errorf("compress: UnpackJDS ColIdx[%d]: %w", k, err)
		}
		m.ColIdx[k] = v
	}
	m.Val = make([]float64, nnz)
	copy(m.Val, buf[head+nnz:])
	ctr.AddOps(len(buf))
	return m, nil
}

// ShiftCols subtracts delta from every column index (Cases 3.2.2/3.2.3
// applied to JDS), charging one operation per index.
func (m *JDS) ShiftCols(delta int, ctr *cost.Counter) { shiftMinor(m.ColIdx, delta, ctr) }

// ConvertColsToLocal rewrites global column indices into local ones via
// the sorted ownership map; see (*CRS).ConvertColsToLocal.
func (m *JDS) ConvertColsToLocal(colMap []int, ctr *cost.Counter) error {
	if err := convertToLocal(m.ColIdx, colMap, "JDS col"); err != nil {
		return err
	}
	ctr.AddOps(len(m.ColIdx))
	return nil
}

// Equal reports exact structural equality.
func (m *JDS) Equal(o *JDS) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols ||
		len(m.Perm) != len(o.Perm) || len(m.JDPtr) != len(o.JDPtr) || len(m.Val) != len(o.Val) {
		return false
	}
	for i := range m.Perm {
		if m.Perm[i] != o.Perm[i] {
			return false
		}
	}
	for i := range m.JDPtr {
		if m.JDPtr[i] != o.JDPtr[i] {
			return false
		}
	}
	for k := range m.Val {
		if m.ColIdx[k] != o.ColIdx[k] || m.Val[k] != o.Val[k] {
			return false
		}
	}
	return true
}
