package compress

import (
	"fmt"

	"repro/internal/cost"
)

// The three-pass ED decoders as they stood before the one-pass rewrite
// (convert every pair, charge per element, then a separate Validate
// walk), kept verbatim as the reference FuzzDecodePartED and
// TestDecodeEDMatchesReference hold the live decoders to: same
// accept/reject decision on every input and, on accept, the same array
// and the same counter total. Unlike the live decoders they charge a
// partial count before rejecting.

func refDecodeEDToCRS(buf []float64, rows, cols, colOffset int, ctr *cost.Counter) (*CRS, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCRS negative shape %dx%d", rows, cols)
	}
	if len(buf) < rows {
		return nil, fmt.Errorf("compress: ED buffer too short: %d words, need %d counts", len(buf), rows)
	}
	// The pair region fixes nnz up front, so RO and CO can be carved
	// from one backing allocation; the prefix sum must agree below.
	nnz := (len(buf) - rows) / 2
	ptr, idx := carveInts(rows+1, nnz)
	m := &CRS{Rows: rows, Cols: cols, RowPtr: ptr, ColIdx: idx}
	for i := 0; i < rows; i++ {
		r, err := wordToCount(buf[i])
		if err != nil {
			return nil, fmt.Errorf("compress: ED count for row %d: %w", i, err)
		}
		m.RowPtr[i+1] = m.RowPtr[i] + r // RO[i+1] = RO[i] + R_i
		ctr.AddOps(1)
	}
	ctr.AddOps(1) // RO[0] initialisation
	if sum := m.RowPtr[rows]; len(buf) != rows+2*sum {
		return nil, fmt.Errorf("compress: ED buffer length %d, want %d (rows %d + 2x%d nnz)",
			len(buf), rows+2*sum, rows, sum)
	}
	m.Val = make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		c, err := wordToIndex(buf[rows+2*k])
		if err != nil {
			return nil, fmt.Errorf("compress: ED column index %d: %w", k, err)
		}
		m.ColIdx[k] = c - colOffset
		m.Val[k] = buf[rows+2*k+1]
		ctr.AddOps(2)
		if colOffset != 0 {
			ctr.AddOps(1)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded ED buffer invalid: %w", err)
	}
	return m, nil
}

func refDecodeEDToCCS(buf []float64, rows, cols, rowOffset int, ctr *cost.Counter) (*CCS, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCCS negative shape %dx%d", rows, cols)
	}
	if len(buf) < cols {
		return nil, fmt.Errorf("compress: ED buffer too short: %d words, need %d counts", len(buf), cols)
	}
	nnz := (len(buf) - cols) / 2
	ptr, idx := carveInts(cols+1, nnz)
	m := &CCS{Rows: rows, Cols: cols, ColPtr: ptr, RowIdx: idx}
	for j := 0; j < cols; j++ {
		r, err := wordToCount(buf[j])
		if err != nil {
			return nil, fmt.Errorf("compress: ED count for col %d: %w", j, err)
		}
		m.ColPtr[j+1] = m.ColPtr[j] + r
		ctr.AddOps(1)
	}
	ctr.AddOps(1)
	if sum := m.ColPtr[cols]; len(buf) != cols+2*sum {
		return nil, fmt.Errorf("compress: ED buffer length %d, want %d (cols %d + 2x%d nnz)",
			len(buf), cols+2*sum, cols, sum)
	}
	m.Val = make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		r, err := wordToIndex(buf[cols+2*k])
		if err != nil {
			return nil, fmt.Errorf("compress: ED row index %d: %w", k, err)
		}
		m.RowIdx[k] = r - rowOffset
		m.Val[k] = buf[cols+2*k+1]
		ctr.AddOps(2)
		if rowOffset != 0 {
			ctr.AddOps(1)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded ED buffer invalid: %w", err)
	}
	return m, nil
}

func refDecodeEDToCRSMap(buf []float64, rows int, colMap []int, ctr *cost.Counter) (*CRS, error) {
	if rows < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCRSMap negative row count %d", rows)
	}
	if len(buf) < rows {
		return nil, fmt.Errorf("compress: ED buffer too short: %d words, need %d counts", len(buf), rows)
	}
	nnz := (len(buf) - rows) / 2
	ptr, idx := carveInts(rows+1, nnz)
	m := &CRS{Rows: rows, Cols: len(colMap), RowPtr: ptr, ColIdx: idx}
	for i := 0; i < rows; i++ {
		r, err := wordToCount(buf[i])
		if err != nil {
			return nil, fmt.Errorf("compress: ED count for row %d: %w", i, err)
		}
		m.RowPtr[i+1] = m.RowPtr[i] + r
		ctr.AddOps(1)
	}
	ctr.AddOps(1)
	if sum := m.RowPtr[rows]; len(buf) != rows+2*sum {
		return nil, fmt.Errorf("compress: ED buffer length %d, want %d", len(buf), rows+2*sum)
	}
	m.Val = make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		g, err := wordToIndex(buf[rows+2*k])
		if err != nil {
			return nil, fmt.Errorf("compress: ED column index %d: %w", k, err)
		}
		l, err := localIndexOf(colMap, g)
		if err != nil {
			return nil, fmt.Errorf("compress: ED column index %d: %w", k, err)
		}
		m.ColIdx[k] = l
		m.Val[k] = buf[rows+2*k+1]
		ctr.AddOps(3)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded ED buffer invalid: %w", err)
	}
	return m, nil
}

func refDecodeEDToCCSMap(buf []float64, cols int, rowMap []int, ctr *cost.Counter) (*CCS, error) {
	if cols < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCCSMap negative col count %d", cols)
	}
	if len(buf) < cols {
		return nil, fmt.Errorf("compress: ED buffer too short: %d words, need %d counts", len(buf), cols)
	}
	nnz := (len(buf) - cols) / 2
	ptr, idx := carveInts(cols+1, nnz)
	m := &CCS{Rows: len(rowMap), Cols: cols, ColPtr: ptr, RowIdx: idx}
	for j := 0; j < cols; j++ {
		r, err := wordToCount(buf[j])
		if err != nil {
			return nil, fmt.Errorf("compress: ED count for col %d: %w", j, err)
		}
		m.ColPtr[j+1] = m.ColPtr[j] + r
		ctr.AddOps(1)
	}
	ctr.AddOps(1)
	if sum := m.ColPtr[cols]; len(buf) != cols+2*sum {
		return nil, fmt.Errorf("compress: ED buffer length %d, want %d", len(buf), cols+2*sum)
	}
	m.Val = make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		g, err := wordToIndex(buf[cols+2*k])
		if err != nil {
			return nil, fmt.Errorf("compress: ED row index %d: %w", k, err)
		}
		l, err := localIndexOf(rowMap, g)
		if err != nil {
			return nil, fmt.Errorf("compress: ED row index %d: %w", k, err)
		}
		m.RowIdx[k] = l
		m.Val[k] = buf[cols+2*k+1]
		ctr.AddOps(3)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded ED buffer invalid: %w", err)
	}
	return m, nil
}
