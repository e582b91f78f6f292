package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// HBStream is the chunked reader for Harwell-Boeing files. The column
// pointer array (ncol+1 ints) is held in memory — it is the small part —
// while row indices and values stream through two parallel line
// cursors, one positioned at the index section and one at the value
// section (located by the header's card counts), advancing in lockstep
// so each entry costs O(1) memory. Symmetric (xSA) matrices are
// mirrored on the fly; pattern (Pxx) matrices get unit values.
type HBStream struct {
	ra         io.ReaderAt
	rows, cols int
	nnz        int
	symmetric  bool
	valcrd     int
	ptrcrd     int
	indcrd     int
	indFmt     fortranFormat
	valFmt     fortranFormat
	ptr        []int

	ind   *fixedFieldReader
	val   *fixedFieldReader
	j     int // current column
	k     int // current entry ordinal
	chunk int
	buf   []Entry
}

// NewHBStream builds a chunked reader over ra (typically an *os.File).
// The header and column pointers are parsed eagerly.
func NewHBStream(ra io.ReaderAt, chunkEntries int) (*HBStream, error) {
	if chunkEntries <= 0 {
		chunkEntries = DefaultChunkEntries
	}
	h := &HBStream{ra: ra, chunk: chunkEntries}
	if err := h.Reset(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *HBStream) Shape() (rows, cols int) { return h.rows, h.cols }

// NNZHint returns the header's NNZERO. A symmetric file yields up to
// twice that after mirroring; the hint stays the declared figure.
func (h *HBStream) NNZHint() int { return h.nnz }

// Reset re-parses the header and repositions both section cursors.
func (h *HBStream) Reset() error {
	sc := h.sectionScanner()

	// Header line 1 (title/key) — content unused.
	if !sc.Scan() {
		return fmt.Errorf("sparse: HB: missing title line")
	}
	// Line 2: card counts locate the index and value sections.
	if !sc.Scan() {
		return fmt.Errorf("sparse: HB: missing card-count line")
	}
	counts := strings.Fields(sc.Text())
	if len(counts) < 4 {
		return fmt.Errorf("sparse: HB: bad card-count line %q", sc.Text())
	}
	var err error
	if h.ptrcrd, err = strconv.Atoi(counts[1]); err != nil {
		return fmt.Errorf("sparse: HB: bad PTRCRD: %w", err)
	}
	if h.indcrd, err = strconv.Atoi(counts[2]); err != nil {
		return fmt.Errorf("sparse: HB: bad INDCRD: %w", err)
	}
	if h.valcrd, err = strconv.Atoi(counts[3]); err != nil {
		return fmt.Errorf("sparse: HB: bad VALCRD: %w", err)
	}
	// Line 3: type and dimensions.
	if !sc.Scan() {
		return fmt.Errorf("sparse: HB: missing type line")
	}
	line3 := sc.Text()
	if len(line3) < 3 {
		return fmt.Errorf("sparse: HB: short type line %q", line3)
	}
	mxtype := strings.ToUpper(strings.TrimSpace(line3[:3]))
	if len(mxtype) != 3 || (mxtype[0] != 'R' && mxtype[0] != 'P') || mxtype[2] != 'A' {
		return fmt.Errorf("sparse: HB: unsupported matrix type %q", mxtype)
	}
	h.symmetric = mxtype[1] == 'S'
	dims := strings.Fields(line3[3:])
	if len(dims) < 3 {
		return fmt.Errorf("sparse: HB: bad dimension fields in %q", line3)
	}
	if h.rows, err = strconv.Atoi(dims[0]); err != nil {
		return fmt.Errorf("sparse: HB: bad NROW: %w", err)
	}
	if h.cols, err = strconv.Atoi(dims[1]); err != nil {
		return fmt.Errorf("sparse: HB: bad NCOL: %w", err)
	}
	if h.nnz, err = strconv.Atoi(dims[2]); err != nil {
		return fmt.Errorf("sparse: HB: bad NNZERO: %w", err)
	}
	if h.rows < 0 || h.cols < 0 || h.nnz < 0 {
		return fmt.Errorf("sparse: HB: negative dimension")
	}
	if h.cols == math.MaxInt || h.nnz == math.MaxInt {
		return fmt.Errorf("sparse: HB: NCOL+1 or NNZERO+1 overflows")
	}
	// Line 4: formats.
	if !sc.Scan() {
		return fmt.Errorf("sparse: HB: missing format line")
	}
	line4 := sc.Text()
	ptrFmt, err := parseFortranFormat(fixedField(line4, 0, 16))
	if err != nil {
		return err
	}
	if h.indFmt, err = parseFortranFormat(fixedField(line4, 16, 16)); err != nil {
		return err
	}
	if h.valcrd > 0 {
		if h.valFmt, err = parseFortranFormat(fixedField(line4, 32, 20)); err != nil {
			return err
		}
	}

	// Column pointers: small (ncol+1), kept resident. They are read a
	// field at a time and the array grows as fields arrive, so what a
	// header can make this parser allocate is bounded by what the file
	// holds, never by NCOL alone: a five-line file declaring 2·10⁹
	// columns ends in ErrUnexpectedEOF, not in a 16 GB allocation. The
	// scanner is left positioned right after them — that is the index
	// cursor.
	pr := &fixedFieldReader{sc: sc, f: ptrFmt}
	h.ptr = h.ptr[:0]
	for len(h.ptr) <= h.cols {
		f, err := pr.next()
		if err != nil {
			return fmt.Errorf("sparse: HB: pointer %d of %d: %w", len(h.ptr)+1, h.cols+1, err)
		}
		p, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("sparse: HB: pointer %q: %w", f, err)
		}
		h.ptr = append(h.ptr, p)
	}
	if h.ptr[0] != 1 || h.ptr[h.cols] != h.nnz+1 {
		return fmt.Errorf("sparse: HB: pointer array inconsistent (ptr[0]=%d, ptr[ncol]=%d, nnz=%d)", h.ptr[0], h.ptr[h.cols], h.nnz)
	}
	for j := 0; j < h.cols; j++ {
		if h.ptr[j+1] < h.ptr[j] {
			return fmt.Errorf("sparse: HB: pointer decreases at column %d", j)
		}
	}
	h.ind = &fixedFieldReader{sc: sc, f: h.indFmt}

	// The value cursor starts on its own reader, skipped past the
	// header and the pointer and index cards.
	if h.valcrd > 0 {
		vsc := h.sectionScanner()
		for skip := 4 + h.ptrcrd + h.indcrd; skip > 0; skip-- {
			if !vsc.Scan() {
				return fmt.Errorf("sparse: HB: file ends before value section")
			}
		}
		h.val = &fixedFieldReader{sc: vsc, f: h.valFmt}
	} else {
		h.val = nil
	}
	h.j, h.k = 0, 0
	return nil
}

// sectionScanner returns a fresh line scanner over the whole file.
func (h *HBStream) sectionScanner() *bufio.Scanner {
	sc := bufio.NewScanner(io.NewSectionReader(h.ra, 0, 1<<62))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return sc
}

func (h *HBStream) Next() (Chunk, error) {
	if h.k >= h.nnz {
		return Chunk{}, io.EOF
	}
	if cap(h.buf) < 2*h.chunk {
		h.buf = make([]Entry, 0, 2*h.chunk)
	}
	h.buf = h.buf[:0]
	for len(h.buf) < h.chunk && h.k < h.nnz {
		for h.j < h.cols && h.k >= h.ptr[h.j+1]-1 {
			h.j++
		}
		if h.j >= h.cols {
			return Chunk{}, fmt.Errorf("sparse: HB: entry %d beyond last column", h.k)
		}
		indField, err := h.ind.next()
		if err != nil {
			return Chunk{}, fmt.Errorf("sparse: HB: indices: %w", err)
		}
		i, err := strconv.Atoi(indField)
		if err != nil {
			return Chunk{}, fmt.Errorf("sparse: HB: index %q: %w", indField, err)
		}
		if i < 1 || i > h.rows {
			return Chunk{}, fmt.Errorf("sparse: HB: row index %d out of range [1, %d]", i, h.rows)
		}
		v := 1.0
		if h.val != nil {
			valField, err := h.val.next()
			if err != nil {
				return Chunk{}, fmt.Errorf("sparse: HB: values: %w", err)
			}
			if v, err = strconv.ParseFloat(fortranFloat(valField), 64); err != nil {
				return Chunk{}, fmt.Errorf("sparse: HB: value %q: %w", valField, err)
			}
		}
		h.k++
		if v == 0 {
			continue
		}
		h.buf = append(h.buf, Entry{Row: i - 1, Col: h.j, Val: v})
		if h.symmetric && i-1 != h.j {
			if h.j >= h.rows || i-1 >= h.cols {
				return Chunk{}, fmt.Errorf("sparse: HB: symmetric entry (%d, %d) cannot be mirrored", i-1, h.j)
			}
			h.buf = append(h.buf, Entry{Row: h.j, Col: i - 1, Val: v})
		}
	}
	if len(h.buf) == 0 {
		return Chunk{}, io.EOF
	}
	return Chunk{Entries: h.buf}, nil
}

// fixedFieldReader yields the fixed-width numeric fields of one section
// one at a time, advancing to the next line when the current one runs
// out of populated fields.
type fixedFieldReader struct {
	sc      *bufio.Scanner
	f       fortranFormat
	line    string
	k       int
	started bool
}

func (r *fixedFieldReader) next() (string, error) {
	for {
		if r.started {
			for r.k < r.f.count {
				lo := r.k * r.f.width
				if lo >= len(r.line) {
					break
				}
				hi := lo + r.f.width
				if hi > len(r.line) {
					hi = len(r.line)
				}
				field := strings.TrimSpace(r.line[lo:hi])
				r.k++
				if field == "" {
					// A blank field ends the line.
					r.k = r.f.count
					break
				}
				return field, nil
			}
		}
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		r.line = r.sc.Text()
		r.k = 0
		r.started = true
	}
}
