package compress

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// The ED scheme's special buffer (paper §3.3, Figure 6).
//
// Encoding walks one part of the *global* array and produces a flat word
// buffer
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

// EncodeED encodes the part rowMap x colMap of the global array g into
// a special buffer whose stored C indices are global, writing into
// buf's backing array — pass a zero-length buffer from machine.GetBuf
// to reuse one allocation across parts. It is the root's one scan for
// every partition and both schemes that compress at the root
// (CompressPart reads its lines back off the buffer): each owned line
// is read at the owned minor indices — a row-major line is a row
// gathered through the column map, a column-major line a strided walk
// down the owned rows — and each (C, V) pair is written by index. The
// buffer is never sized from a density guess: before each line the
// kernel checks that a fully dense line still fits, and when it does
// not — at line 0 for a fresh buffer — it counts the nonzeros still to
// come and grows once, to exactly what the part needs plus that one
// line of headroom. A pooled buffer that has seen the run's largest
// part is therefore never grown again and the whole encode is a single
// scan. The counter is charged one operation per scanned element plus
// three per nonzero, nr·nc + 3·nnz booked once — identical to
// CompressCRS/CCS accounting, which is why the paper's encoding time
// equals its CFS compression time.
func EncodeED(g *sparse.Dense, rowMap, colMap []int, major Major, buf []float64, ctr *cost.Counter) []float64 {
	if outside(rowMap, g.Rows()) || outside(colMap, g.Cols()) {
		panic(fmt.Sprintf("compress: EncodeED: part of %d rows x %d cols outside the %dx%d array",
			len(rowMap), len(colMap), g.Rows(), g.Cols()))
	}
	// Line l's cell at minor index m is data[majMap[l]*majStride + m*minStride].
	majMap, minMap, majStride, minStride := rowMap, colMap, g.Cols(), 1
	if major == ColMajor {
		majMap, minMap, majStride, minStride = colMap, rowMap, 1, g.Cols()
	}
	data := g.Data()
	lines, span := len(majMap), len(minMap) // counts region first, then the pairs line by line
	buf = buf[:cap(buf)]
	if len(buf) < lines {
		buf = make([]float64, lines)
	}
	w := lines
	for l, gl := range majMap {
		if len(buf)-w < 2*span {
			rest := 0 // nonzeros of the lines still to come
			for _, gr := range majMap[l:] {
				for _, m := range minMap {
					if data[gr*majStride+m*minStride] != 0 {
						rest++
					}
				}
			}
			grown := make([]float64, w+2*rest+2*span)
			copy(grown, buf[:w])
			buf = grown
		}
		out := buf[w : w+2*span]
		var n int
		if major == RowMajor {
			n = gatherRow(out, data[gl*majStride:(gl+1)*majStride], minMap)
		} else {
			n = gatherCol(out, data, gl, minStride, minMap)
		}
		buf[l] = float64(n / 2)
		w += n
	}
	ctr.AddOps(lines*span + 3*(w-lines)/2)
	return buf[:w]
}

// gatherRow writes the (global column, value) pairs of row's nonzeros
// at the columns of colMap to out and returns the words written. Every
// cell is stored at the cursor, which advances only past a nonzero.
// Both gathers stay out of line: inlined into EncodeED's line loop they
// ran 10-20% slower per cell (BenchmarkEncodeED, 2-CPU Xeon).
//
//go:noinline
func gatherRow(out, row []float64, colMap []int) int {
	n := 0
	for _, j := range colMap {
		v := row[j]
		out[n], out[n+1] = float64(j), v
		n += nonzero(v) << 1
	}
	return n
}

// gatherCol is gatherRow down column j of a row-major array with the
// given row stride.
//
//go:noinline
func gatherCol(out, data []float64, j, stride int, rowMap []int) int {
	n := 0
	for _, i := range rowMap {
		v := data[j+i*stride]
		out[n], out[n+1] = float64(i), v
		n += nonzero(v) << 1
	}
	return n
}

// outside reports whether the sorted map m names an index outside
// [0, dim).
func outside(m []int, dim int) bool {
	return len(m) > 0 && (m[0] < 0 || m[len(m)-1] >= dim)
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
// time ⌈n/p⌉·n·(2s' + 1/n) + 1 — in one call once the buffer has been
// accepted: a rejected buffer charges nothing, so no caller books work
// for a part that was not produced. The result needs no further
// Validate: every check it makes is made here, on the way through.
func DecodeEDToCRS(buf []float64, rows, cols, colOffset int, ctr *cost.Counter) (*CRS, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCRS negative shape %dx%d", rows, cols)
	}
	ptr, idx, val, err := decodeED(buf, rows, cols, colOffset, nil, "row", "column", ctr)
	if err != nil {
		return nil, err
	}
	return &CRS{Rows: rows, Cols: cols, RowPtr: ptr, ColIdx: idx, Val: val}, nil
}

// DecodeEDToCCS decodes a column-major special buffer into a local CCS of
// shape rows x cols, subtracting rowOffset from every stored row index.
// Charging and the rejected-buffer rule are those of DecodeEDToCRS.
func DecodeEDToCCS(buf []float64, rows, cols, rowOffset int, ctr *cost.Counter) (*CCS, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCCS negative shape %dx%d", rows, cols)
	}
	ptr, idx, val, err := decodeED(buf, cols, rows, rowOffset, nil, "col", "row", ctr)
	if err != nil {
		return nil, err
	}
	return &CCS{Rows: rows, Cols: cols, ColPtr: ptr, RowIdx: idx, Val: val}, nil
}

// decodeED is the decode of both layouts: lines major lines (rows of a
// CRS, columns of a CCS) whose minor indices must land in [0, span)
// once made local — by subtracting offset or, when idxMap is non-nil
// (a strided ownership map of span entries), by finding them in it.
// Each region of the buffer is walked once. The counts region becomes
// the pointer array by prefix sum, RO[i+1] = RO[i] + R_i, every count
// tested as it is added: an exact non-negative integer that does not
// run past the pair region. The pair region becomes the index and value
// arrays line by line, every pair tested as it is moved: an exact
// integer index, inside the span once local, strictly ascending within
// its line, and a nonzero value — the invariants (*CRS).Validate
// checks, so no array it would reject is returned.
func decodeED(buf []float64, lines, span, offset int, idxMap []int, line, minor string, ctr *cost.Counter) (ptr, idx []int, val []float64, err error) {
	if len(buf) < lines {
		return nil, nil, nil, fmt.Errorf("compress: ED buffer too short: %d words, need %d counts", len(buf), lines)
	}
	// The pair region fixes nnz up front, so the pointer and index arrays
	// can be carved from one backing allocation sized by the buffer, never
	// by a count word; the prefix sum must agree below.
	pairs := buf[lines:]
	nnz := len(pairs) / 2
	ptr, idx = carveInts(lines+1, nnz)
	sum := 0
	for i, w := range buf[:lines] {
		r, ok := exactInt(w)
		if !ok || r < 0 || r > nnz-sum {
			if _, err := wordToCount(w); err != nil {
				return nil, nil, nil, fmt.Errorf("compress: ED count for %s %d: %w", line, i, err)
			}
			return nil, nil, nil, fmt.Errorf("compress: ED counts reach %d at %s %d, pair region holds %d", sum+r, line, i, nnz)
		}
		sum += r
		ptr[i+1] = sum
	}
	if len(pairs) != 2*sum {
		return nil, nil, nil, fmt.Errorf("compress: ED buffer length %d, want %d (%d counts + 2x%d nnz)",
			len(buf), lines+2*sum, lines, sum)
	}
	val = make([]float64, nnz)
	for i := 0; i < lines; i++ {
		prev := -1
		for k := ptr[i]; k < ptr[i+1]; k++ {
			w, v := pairs[2*k], pairs[2*k+1]
			g, ok := exactInt(w)
			if !ok {
				_, err := wordToIndex(w)
				return nil, nil, nil, fmt.Errorf("compress: ED %s index %d: %w", minor, k, err)
			}
			j := g - offset
			if idxMap != nil {
				if j, err = localIndexOf(idxMap, g); err != nil {
					return nil, nil, nil, fmt.Errorf("compress: ED %s index %d: %w", minor, k, err)
				}
			}
			switch {
			case j < 0 || j >= span:
				return nil, nil, nil, fmt.Errorf("compress: ED %s index %d out of range %d in %s %d", minor, j, span, line, i)
			case j <= prev:
				return nil, nil, nil, fmt.Errorf("compress: ED %s indices not ascending in %s %d", minor, line, i)
			case v == 0:
				return nil, nil, nil, fmt.Errorf("compress: ED explicit zero in %s %d at %s %d", line, i, minor, j)
			}
			idx[k], val[k], prev = j, v, j
		}
	}
	perPair := 2 // the C and V moves
	if offset != 0 || idxMap != nil {
		perPair = 3 // and the index conversion
	}
	ctr.AddOps(lines + 1 + perPair*nnz) // RO entries, RO[0] included
	return ptr, idx, val, nil
}

// exactInt converts a wire word to the integer it holds exactly:
// ok is false for NaN, the infinities, fractions and magnitudes at or
// beyond 2^53 — everything wordToIndex rejects, which callers use on
// the failure path to name the reason.
func exactInt(w float64) (n int, ok bool) {
	n = int(w)
	return n, float64(n) == w && w < maxExactWord && w > -maxExactWord
}

// nonzero returns 1 when v != 0 and 0 otherwise (so for both signed
// zeros), without a branch: at the paper's sparse ratios the taken
// branch of `if v != 0` is the scan's dominant cost, mispredicted once
// per nonzero.
func nonzero(v float64) int {
	b := math.Float64bits(v) << 1 // drop the sign
	return int((b | -b) >> 63)
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
