package compress

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// CRS and CCS are one structure read two ways. The paper defines RO, CO
// and VL once (§3) and obtains the CCS method by exchanging the roles of
// rows and columns; lines is that one structure — n major lines (the
// rows of a CRS, the columns of a CCS), each holding the minor indices
// of its nonzeros, ascending within [0, span), beside their values —
// and every operation that does not walk a dense array is written once
// over it, below. (*CRS).lines and (*CCS).lines hand the view out,
// crsOf and ccsOf turn one back into the named type, and the exported
// twins in crs.go, ccs.go, wire.go and convert.go are one-line wrappers.
//
// What is not here: the scans of a dense array. The root's one scan is
// EncodeED (edbuf.go), which walks a part in either Major through its
// ownership maps; CompressCCS and CompressPart read their lines back off
// its buffer (linesOf, part.go), and PackPart rewrites it straight into
// the wire form packInto writes. CompressCRS keeps its own append scan.
//
// The kernels take the view by value and index plain slices: no
// closure, interface method or function value is called per element.
type lines struct {
	n, span  int
	ptr, idx []int // the paper's RO (len n+1) and CO (len nnz)
	val      []float64
}

func (m *CRS) lines() lines { return lines{m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Val} }
func (m *CCS) lines() lines { return lines{m.Cols, m.Rows, m.ColPtr, m.RowIdx, m.Val} }

func crsOf(l lines) *CRS {
	return &CRS{Rows: l.n, Cols: l.span, RowPtr: l.ptr, ColIdx: l.idx, Val: l.val}
}

func ccsOf(l lines) *CCS {
	return &CCS{Rows: l.span, Cols: l.n, ColPtr: l.ptr, RowIdx: l.idx, Val: l.val}
}

// axes names the parts of a lines view in one format's vocabulary, for
// error and panic text only.
type axes struct{ form, ptr, idx, line, minor string }

var (
	crsAxes = &axes{form: "CRS", ptr: "RowPtr", idx: "ColIdx", line: "row", minor: "col"}
	ccsAxes = &axes{form: "CCS", ptr: "ColPtr", idx: "RowIdx", line: "col", minor: "row"}
)

// validate checks the compressed-array invariants: pointer array shape
// and monotonicity, index ranges, ascending minor order within each
// line, and no explicit zeros.
func (l lines) validate(ax *axes) error {
	if l.n < 0 || l.span < 0 {
		return fmt.Errorf("compress: %s negative shape: %d %ss, %d %ss", ax.form, l.n, ax.line, l.span, ax.minor)
	}
	if len(l.ptr) != l.n+1 {
		return fmt.Errorf("compress: %s %s len %d, want %d", ax.form, ax.ptr, len(l.ptr), l.n+1)
	}
	if l.ptr[0] != 0 {
		return fmt.Errorf("compress: %s %s[0] = %d, want 0", ax.form, ax.ptr, l.ptr[0])
	}
	if len(l.idx) != len(l.val) {
		return fmt.Errorf("compress: %s %s len %d != Val len %d", ax.form, ax.idx, len(l.idx), len(l.val))
	}
	if l.ptr[l.n] != len(l.val) {
		return fmt.Errorf("compress: %s %s[last] = %d, want nnz %d", ax.form, ax.ptr, l.ptr[l.n], len(l.val))
	}
	// Monotonicity must hold for ALL lines before any element range is
	// walked: with ptr[0] = 0 and ptr[last] = nnz it bounds every
	// intermediate pointer, so a hostile decoded pointer like [0, 7, 0]
	// cannot index past idx in the loop below.
	for i := 0; i < l.n; i++ {
		if l.ptr[i+1] < l.ptr[i] {
			return fmt.Errorf("compress: %s %s decreases at %s %d", ax.form, ax.ptr, ax.line, i)
		}
	}
	for i := 0; i < l.n; i++ {
		for k := l.ptr[i]; k < l.ptr[i+1]; k++ {
			j := l.idx[k]
			if j < 0 || j >= l.span {
				return fmt.Errorf("compress: %s %s index %d out of range %d at %s %d", ax.form, ax.minor, j, l.span, ax.line, i)
			}
			if k > l.ptr[i] && l.idx[k-1] >= j {
				return fmt.Errorf("compress: %s %ss not ascending in %s %d", ax.form, ax.minor, ax.line, i)
			}
			if l.val[k] == 0 {
				return fmt.Errorf("compress: %s explicit zero at %s %d %s %d", ax.form, ax.line, i, ax.minor, j)
			}
		}
	}
	return nil
}

// at returns the element at the given line and minor index by binary
// search within the line.
func (l lines) at(ax *axes, line, minor int) float64 {
	if line < 0 || line >= l.n || minor < 0 || minor >= l.span {
		panic(fmt.Sprintf("compress: %s.At: %s %d of %d, %s %d of %d out of range",
			ax.form, ax.line, line, l.n, ax.minor, minor, l.span))
	}
	lo, hi := l.ptr[line], l.ptr[line+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case l.idx[mid] < minor:
			lo = mid + 1
		case l.idx[mid] > minor:
			hi = mid
		default:
			return l.val[mid]
		}
	}
	return 0
}

// equal reports exact structural equality. All three slice lengths are
// compared first, so arrays that are not even the same size — or not
// valid — compare unequal instead of indexing out of range.
func (l lines) equal(o lines) bool {
	if l.n != o.n || l.span != o.span ||
		len(l.ptr) != len(o.ptr) || len(l.idx) != len(o.idx) || len(l.val) != len(o.val) {
		return false
	}
	for i := range l.ptr {
		if l.ptr[i] != o.ptr[i] {
			return false
		}
	}
	for k := range l.idx {
		if l.idx[k] != o.idx[k] {
			return false
		}
	}
	for k := range l.val {
		if l.val[k] != o.val[k] {
			return false
		}
	}
	return true
}

// clone returns a deep copy.
func (l lines) clone() lines {
	c := lines{n: l.n, span: l.span,
		ptr: make([]int, len(l.ptr)),
		idx: make([]int, len(l.idx)),
		val: make([]float64, len(l.val))}
	copy(c.ptr, l.ptr)
	copy(c.idx, l.idx)
	copy(c.val, l.val)
	return c
}

// shiftMinor subtracts delta from every minor index, charging one
// operation per index; delta 0 is Case 3.2.1, no conversion and no
// charge. It takes the index array alone so JDS shares it.
func shiftMinor(idx []int, delta int, ctr *cost.Counter) {
	if delta == 0 {
		return
	}
	for k := range idx {
		idx[k] -= delta
	}
	ctr.AddOps(len(idx))
}

// linesFromCOO builds the lines of a COO, by row or — the same array
// with its coordinates exchanged — by column. The COO is sorted
// internally; duplicate coordinates are rejected.
func linesFromCOO(c *sparse.COO, byCol bool) (lines, error) {
	if err := c.Validate(); err != nil {
		return lines{}, err
	}
	s := c.Clone()
	if byCol {
		s.Rows, s.Cols = s.Cols, s.Rows
		for k, e := range s.Entries {
			s.Entries[k].Row, s.Entries[k].Col = e.Col, e.Row
		}
	}
	s.SortRowMajor()
	for k := 1; k < len(s.Entries); k++ {
		if e := s.Entries[k]; e.Row == s.Entries[k-1].Row && e.Col == s.Entries[k-1].Col {
			if byCol {
				e.Row, e.Col = e.Col, e.Row
			}
			return lines{}, fmt.Errorf("compress: duplicate entry at (%d, %d)", e.Row, e.Col)
		}
	}
	l := lines{n: s.Rows, span: s.Cols, ptr: make([]int, s.Rows+1),
		idx: make([]int, len(s.Entries)), val: make([]float64, len(s.Entries))}
	for k, e := range s.Entries {
		l.idx[k], l.val[k] = e.Col, e.Val
	}
	pos := 0
	for i := 0; i < l.n; i++ {
		l.ptr[i] = pos
		for pos < len(s.Entries) && s.Entries[pos].Row == i {
			pos++
		}
	}
	l.ptr[l.n] = pos
	return l, nil
}

// transpose re-lays the same nonzeros along the other axis — span lines
// of n — by one counting sort over the minor indices, O(nnz + span).
// Relabelled, the result is the CCS of a CRS, the CRS of a CCS, or the
// CRS of the transposed array.
func (l lines) transpose() lines {
	nnz := len(l.val)
	out := lines{n: l.span, span: l.n,
		ptr: make([]int, l.span+1),
		idx: make([]int, nnz),
		val: make([]float64, nnz)}
	for _, j := range l.idx {
		out.ptr[j+1]++
	}
	for j := 0; j < l.span; j++ {
		out.ptr[j+1] += out.ptr[j]
	}
	next := make([]int, l.span)
	copy(next, out.ptr[:l.span])
	for i := 0; i < l.n; i++ {
		for k := l.ptr[i]; k < l.ptr[i+1]; k++ {
			j := l.idx[k]
			pos := next[j]
			next[j]++
			out.idx[pos] = i
			out.val[pos] = l.val[k]
		}
	}
	return out
}

// packInto appends the wire form [ ptr | idx | val ] to buf, growing it
// only when its capacity is too small, and charges one operation per
// appended word.
func (l lines) packInto(buf []float64, ctr *cost.Counter) []float64 {
	start := len(buf)
	for _, p := range l.ptr {
		buf = append(buf, float64(p))
	}
	for _, j := range l.idx {
		buf = append(buf, float64(j))
	}
	buf = append(buf, l.val...)
	ctr.AddOps(len(buf) - start)
	return buf
}

// unpackLines rebuilds n lines of the given span from a buffer packInto
// produced. Every pointer word must be an exact non-negative integer
// and every index word an exact integer; range and order are left to
// validate, after the caller has made the indices local. The charge is
// made once, after the last word has been accepted: a rejected buffer
// charges nothing.
func unpackLines(ax *axes, buf []float64, n, span int, ctr *cost.Counter) (lines, error) {
	if n < 0 || span < 0 {
		return lines{}, fmt.Errorf("compress: unpack %s: negative shape: %d %ss, %d %ss", ax.form, n, ax.line, span, ax.minor)
	}
	if len(buf) < n+1 {
		return lines{}, fmt.Errorf("compress: unpack %s: buffer %d words, need %d for %s", ax.form, len(buf), n+1, ax.ptr)
	}
	nnz, err := wordToCount(buf[n])
	if err != nil {
		return lines{}, fmt.Errorf("compress: unpack %s: %s[%d]: %w", ax.form, ax.ptr, n, err)
	}
	if len(buf) != n+1+2*nnz {
		return lines{}, fmt.Errorf("compress: unpack %s: buffer length %d, want %d", ax.form, len(buf), n+1+2*nnz)
	}
	// ptr and idx are carved out of one backing array: one
	// receiver-side allocation per part instead of two.
	l := lines{n: n, span: span}
	l.ptr, l.idx = carveInts(n+1, nnz)
	for i := 0; i <= n; i++ {
		p, err := wordToCount(buf[i])
		if err != nil {
			return lines{}, fmt.Errorf("compress: unpack %s: %s[%d]: %w", ax.form, ax.ptr, i, err)
		}
		l.ptr[i] = p
	}
	for k := 0; k < nnz; k++ {
		j, err := wordToIndex(buf[n+1+k])
		if err != nil {
			return lines{}, fmt.Errorf("compress: unpack %s: %s[%d]: %w", ax.form, ax.idx, k, err)
		}
		l.idx[k] = j
	}
	l.val = make([]float64, nnz)
	copy(l.val, buf[n+1+nnz:])
	ctr.AddOps(len(buf))
	return l, nil
}

// carveInts allocates one []int backing array and carves it into two
// independent slices of the given lengths (full slice expressions keep
// an append on the first from bleeding into the second). Decoders use
// it so every unpacked part costs one index allocation instead of two.
func carveInts(n1, n2 int) ([]int, []int) {
	ints := make([]int, n1+n2)
	return ints[:n1:n1], ints[n1:]
}
