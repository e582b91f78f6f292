package compress

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// The ED scheme's special buffer (paper §3.3, Figure 6).
//
// Encoding walks one rectangular piece of the *global* array and produces
// a flat word buffer
//
//	[ R_0, R_1, ..., R_{m-1},  C_0, V_0, C_1, V_1, ... ]
//
// where, for the row-major (CRS-style) layout, R_i is the nonzero count
// of local row i and the (C, V) pairs list nonzeros row-major with C the
// *global* column index; the column-major (CCS-style) layout is the dual
// with R_j per local column and C the *global* row index. The buffer is
// exactly what travels on the wire — there is no separate packing step,
// which is why the ED distribution term in Tables 1-2 has no pack cost.
//
// Decoding rebuilds RO by prefix-summing the counts (RO[i+1] = RO[i]+R_i,
// the paper's formula), moves the C values into CO converting global to
// local indices by subtracting the receiver's minor-dimension origin
// (Cases 3.3.1-3.3.3), and moves the V values into VL.
//
// Indices are stored as float64 words; they are exact below 2^53, far
// beyond any representable array size here.

// Major selects the ED buffer layout.
type Major int

const (
	// RowMajor is the CRS-style layout: counts per row, C holds column indices.
	RowMajor Major = iota
	// ColMajor is the CCS-style layout: counts per column, C holds row indices.
	ColMajor
)

// String returns "row" or "col".
func (m Major) String() string {
	if m == RowMajor {
		return "row"
	}
	return "col"
}

// EncodeEDRect encodes the rectangle [r0, r0+nr) x [c0, c0+nc) of the
// global array g into a special buffer. Stored C indices are global.
// The counter is charged one operation per scanned element plus three per
// nonzero — identical to CompressCRS/CCS accounting, which is why the
// paper's encoding time equals its CFS compression time.
func EncodeEDRect(g *sparse.Dense, r0, c0, nr, nc int, major Major, ctr *cost.Counter) []float64 {
	if r0 < 0 || c0 < 0 || nr < 0 || nc < 0 || r0+nr > g.Rows() || c0+nc > g.Cols() {
		panic(fmt.Sprintf("compress: EncodeEDRect(%d,%d,%d,%d) out of range %dx%d",
			r0, c0, nr, nc, g.Rows(), g.Cols()))
	}
	var counts int
	if major == RowMajor {
		counts = nr
	} else {
		counts = nc
	}
	buf := make([]float64, counts, counts+2*nr*nc/4) // counts region first
	if major == RowMajor {
		for i := 0; i < nr; i++ {
			n := 0
			for j := 0; j < nc; j++ {
				if v := g.At(r0+i, c0+j); v != 0 {
					buf = append(buf, float64(c0+j), v) // global column index
					n++
					ctr.AddOps(3)
				}
			}
			buf[i] = float64(n)
			ctr.AddOps(nc)
		}
	} else {
		for j := 0; j < nc; j++ {
			n := 0
			for i := 0; i < nr; i++ {
				if v := g.At(r0+i, c0+j); v != 0 {
					buf = append(buf, float64(r0+i), v) // global row index
					n++
					ctr.AddOps(3)
				}
			}
			buf[j] = float64(n)
			ctr.AddOps(nr)
		}
	}
	return buf
}

// AppendEDRows appends the row-major special buffer of rows [lo, hi) of
// m to buf: the rows' nonzero counts, then their (C, V) pairs with the
// column indices as stored. Row ids do not travel — both ends know the
// range. DecodeEDToCRS(buf, hi-lo, m.Cols, 0, nil) is the inverse. The
// compute layer ships row blocks of an already-compressed array this
// way, so no counter is charged: nothing is scanned or packed.
func (m *CRS) AppendEDRows(buf []float64, lo, hi int) []float64 {
	for i := lo; i < hi; i++ {
		buf = append(buf, float64(m.RowPtr[i+1]-m.RowPtr[i]))
	}
	return m.appendEDPairs(buf, lo, hi)
}

// AppendEDRowList is AppendEDRows for a list of rows, in list order.
// The list names rows in a numbering that starts at off (a block of a
// larger array listed by global row): entry g is row g-off of m.
func (m *CRS) AppendEDRowList(buf []float64, rows []int, off int) []float64 {
	for _, g := range rows {
		buf = append(buf, float64(m.RowPtr[g-off+1]-m.RowPtr[g-off]))
	}
	for _, g := range rows {
		buf = m.appendEDPairs(buf, g-off, g-off+1)
	}
	return buf
}

// appendEDPairs appends the (C, V) pairs of rows [lo, hi), which are
// contiguous in a CRS.
func (m *CRS) appendEDPairs(buf []float64, lo, hi int) []float64 {
	for k := m.RowPtr[lo]; k < m.RowPtr[hi]; k++ {
		buf = append(buf, float64(m.ColIdx[k]), m.Val[k])
	}
	return buf
}

// DecodeEDToCRS decodes a row-major special buffer into a local CRS of
// shape rows x cols, subtracting colOffset from every stored column index
// (Cases 3.3.1-3.3.3; pass 0 for no conversion). The counter is charged
// one operation per produced RO entry and per moved C and V word, plus
// one per index conversion when colOffset != 0 — the paper's decoding
// time ⌈n/p⌉·n·(2s' + 1/n) + 1.
func DecodeEDToCRS(buf []float64, rows, cols, colOffset int, ctr *cost.Counter) (*CRS, error) {
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

// DecodeEDToCCS decodes a column-major special buffer into a local CCS of
// shape rows x cols, subtracting rowOffset from every stored row index.
func DecodeEDToCCS(buf []float64, rows, cols, rowOffset int, ctr *cost.Counter) (*CCS, error) {
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

func wordToCount(w float64) (int, error) {
	n, err := wordToIndex(w)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative count %d", n)
	}
	return n, nil
}

// maxExactWord is 2^53: the first float64 magnitude at which integers
// stop being exactly representable. Words at or beyond it are rejected
// so hostile buffers cannot smuggle counts that overflow downstream
// length arithmetic (rows+1+2*nnz and friends).
const maxExactWord = 1 << 53

func wordToIndex(w float64) (int, error) {
	if math.IsNaN(w) || math.IsInf(w, 0) || w != math.Trunc(w) {
		return 0, fmt.Errorf("word %g is not an integer", w)
	}
	if w >= maxExactWord || w <= -maxExactWord {
		return 0, fmt.Errorf("word %g exceeds the exact integer range", w)
	}
	return int(w), nil
}
