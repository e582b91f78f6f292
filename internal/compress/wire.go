package compress

import (
	"fmt"
	"math"

	"repro/internal/cost"
)

// Wire packing for the CFS scheme (paper §3.2): after compressing each
// local piece, the root packs RO, CO, VL into one flat word buffer, sends
// it, and the receiver unpacks it back into a compressed array. One
// operation is charged per copied word on both sides, which yields the
// paper's packing term (2·n²·s + n + p) and unpacking term
// (⌈n/p⌉·n·(2s' + 1/n) + 1) when summed over parts.
//
// Layout: [ RowPtr (rows+1 words) | ColIdx (nnz words) | Val (nnz words) ]
// (dually ColPtr/RowIdx for CCS). Shape metadata travels in the message
// header, not the payload, as an MPI implementation would do with a
// derived datatype.

// PackCRS serialises a CRS into a flat word buffer.
func PackCRS(m *CRS, ctr *cost.Counter) []float64 {
	return PackCRSInto(m, make([]float64, 0, len(m.RowPtr)+2*m.NNZ()), ctr)
}

// PackCRSInto serialises a CRS by appending to buf, growing it only
// when its capacity is too small — pass a zero-length buffer from
// machine.GetBuf to reuse one backing array across parts. Charging is
// identical to PackCRS: one operation per appended word.
func PackCRSInto(m *CRS, buf []float64, ctr *cost.Counter) []float64 {
	start := len(buf)
	for _, p := range m.RowPtr {
		buf = append(buf, float64(p))
	}
	for _, j := range m.ColIdx {
		buf = append(buf, float64(j))
	}
	buf = append(buf, m.Val...)
	ctr.AddOps(len(buf) - start)
	return buf
}

// UnpackCRS deserialises a buffer produced by PackCRS into a CRS of the
// given shape. The result may still hold global column indices; apply
// ShiftCols afterwards per Case 3.2.2/3.2.3. Validation is deferred to
// the caller for that reason. The charge is made once, after the last
// word has been accepted: a rejected buffer charges nothing.
func UnpackCRS(buf []float64, rows, cols int, ctr *cost.Counter) (*CRS, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("compress: UnpackCRS negative shape %dx%d", rows, cols)
	}
	if len(buf) < rows+1 {
		return nil, fmt.Errorf("compress: UnpackCRS buffer %d words, need %d for RowPtr", len(buf), rows+1)
	}
	nnz, err := wordToCount(buf[rows])
	if err != nil {
		return nil, fmt.Errorf("compress: UnpackCRS RowPtr[%d]: %w", rows, err)
	}
	if len(buf) != rows+1+2*nnz {
		return nil, fmt.Errorf("compress: UnpackCRS buffer length %d, want %d", len(buf), rows+1+2*nnz)
	}
	// RowPtr and ColIdx are carved out of one backing array: one
	// receiver-side allocation per part instead of two.
	ptr, idx := carveInts(rows+1, nnz)
	m := &CRS{Rows: rows, Cols: cols, RowPtr: ptr, ColIdx: idx}
	for i := 0; i <= rows; i++ {
		p, err := wordToCount(buf[i])
		if err != nil {
			return nil, fmt.Errorf("compress: UnpackCRS RowPtr[%d]: %w", i, err)
		}
		m.RowPtr[i] = p
	}
	for k := 0; k < nnz; k++ {
		j, err := wordToIndex(buf[rows+1+k])
		if err != nil {
			return nil, fmt.Errorf("compress: UnpackCRS ColIdx[%d]: %w", k, err)
		}
		m.ColIdx[k] = j
	}
	m.Val = make([]float64, nnz)
	copy(m.Val, buf[rows+1+nnz:])
	ctr.AddOps(len(buf))
	return m, nil
}

// PackCCS serialises a CCS into a flat word buffer.
func PackCCS(m *CCS, ctr *cost.Counter) []float64 {
	return PackCCSInto(m, make([]float64, 0, len(m.ColPtr)+2*m.NNZ()), ctr)
}

// PackCCSInto is the caller-supplied-buffer variant of PackCCS; see
// PackCRSInto.
func PackCCSInto(m *CCS, buf []float64, ctr *cost.Counter) []float64 {
	start := len(buf)
	for _, p := range m.ColPtr {
		buf = append(buf, float64(p))
	}
	for _, i := range m.RowIdx {
		buf = append(buf, float64(i))
	}
	buf = append(buf, m.Val...)
	ctr.AddOps(len(buf) - start)
	return buf
}

// UnpackCCS deserialises a buffer produced by PackCCS into a CCS of the
// given shape. RowIdx may still hold global indices; apply ShiftRows.
// As with UnpackCRS, a rejected buffer charges nothing.
func UnpackCCS(buf []float64, rows, cols int, ctr *cost.Counter) (*CCS, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("compress: UnpackCCS negative shape %dx%d", rows, cols)
	}
	if len(buf) < cols+1 {
		return nil, fmt.Errorf("compress: UnpackCCS buffer %d words, need %d for ColPtr", len(buf), cols+1)
	}
	nnz, err := wordToCount(buf[cols])
	if err != nil {
		return nil, fmt.Errorf("compress: UnpackCCS ColPtr[%d]: %w", cols, err)
	}
	if len(buf) != cols+1+2*nnz {
		return nil, fmt.Errorf("compress: UnpackCCS buffer length %d, want %d", len(buf), cols+1+2*nnz)
	}
	ptr, idx := carveInts(cols+1, nnz)
	m := &CCS{Rows: rows, Cols: cols, ColPtr: ptr, RowIdx: idx}
	for j := 0; j <= cols; j++ {
		p, err := wordToCount(buf[j])
		if err != nil {
			return nil, fmt.Errorf("compress: UnpackCCS ColPtr[%d]: %w", j, err)
		}
		m.ColPtr[j] = p
	}
	for k := 0; k < nnz; k++ {
		i, err := wordToIndex(buf[cols+1+k])
		if err != nil {
			return nil, fmt.Errorf("compress: UnpackCCS RowIdx[%d]: %w", k, err)
		}
		m.RowIdx[k] = i
	}
	m.Val = make([]float64, nnz)
	copy(m.Val, buf[cols+1+nnz:])
	ctr.AddOps(len(buf))
	return m, nil
}

// carveInts allocates one []int backing array and carves it into two
// independent slices of the given lengths (full slice expressions keep
// an append on the first from bleeding into the second). Decoders use
// it so every unpacked part costs one index allocation instead of two.
func carveInts(n1, n2 int) ([]int, []int) {
	ints := make([]int, n1+n2)
	return ints[:n1:n1], ints[n1:]
}

// CheckFinite reports an error if the buffer contains NaN or Inf words;
// transports use it to reject corrupted payloads early.
func CheckFinite(buf []float64) error {
	for i, w := range buf {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("compress: non-finite word %g at offset %d", w, i)
		}
	}
	return nil
}
