package sparse

import (
	"bufio"
	"fmt"
	"io"
)

// TextStream is the chunked reader for the text coordinate format (and
// Matrix-Market-style banners): one pass over the file, bounded entry
// batches, symmetric mirroring applied on the fly. Its buffers are sized
// by the caller's chunk, never by the header's counts.
type TextStream struct {
	rs        io.ReadSeeker
	sc        *bufio.Scanner
	rows      int
	cols      int
	nnz       int // header-declared entry count (file lines)
	read      int // entry lines consumed so far
	symmetric bool
	pattern   bool
	chunk     int
	buf       []Entry
	done      bool
}

// NewTextStream builds a chunked reader over rs, which must be
// positioned anywhere (the constructor seeks to the start). The header
// is parsed eagerly so Shape/NNZHint are available before the first
// chunk.
func NewTextStream(rs io.ReadSeeker, chunkEntries int) (*TextStream, error) {
	if chunkEntries <= 0 {
		chunkEntries = DefaultChunkEntries
	}
	t := &TextStream{rs: rs, chunk: chunkEntries}
	if err := t.Reset(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *TextStream) Shape() (rows, cols int) { return t.rows, t.cols }

// NNZHint returns the header-declared entry count. A symmetric file
// yields up to twice that after mirroring; the hint stays the declared
// figure.
func (t *TextStream) NNZHint() int { return t.nnz }

// Reset seeks back to the start and re-parses the header.
func (t *TextStream) Reset() error {
	if _, err := t.rs.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("sparse: rewinding text stream: %w", err)
	}
	t.sc = bufio.NewScanner(t.rs)
	t.sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	t.read = 0
	t.done = false

	line, err := nextLine(t.sc)
	if err != nil {
		return fmt.Errorf("sparse: reading header: %w", err)
	}
	banner, err := parseTextBanner(line)
	if err != nil {
		return err
	}
	t.symmetric, t.pattern = banner.symmetric, banner.pattern

	line, err = nextLine(t.sc)
	if err != nil {
		return fmt.Errorf("sparse: reading size line: %w", err)
	}
	t.rows, t.cols, t.nnz, err = parseTextSize(line)
	return err
}

func (t *TextStream) Next() (Chunk, error) {
	if t.done {
		return Chunk{}, io.EOF
	}
	if cap(t.buf) < 2*t.chunk {
		t.buf = make([]Entry, 0, 2*t.chunk)
	}
	t.buf = t.buf[:0]
	for len(t.buf) < t.chunk {
		if t.read == t.nnz {
			// All declared entries consumed: anything further on file is
			// a header/payload disagreement, same as a short file.
			if extra := countEntryLines(t.sc); extra > 0 {
				return Chunk{}, &NNZMismatchError{Header: t.nnz, Actual: t.nnz + extra}
			}
			t.done = true
			break
		}
		line, err := nextLine(t.sc)
		if err == io.ErrUnexpectedEOF {
			return Chunk{}, &NNZMismatchError{Header: t.nnz, Actual: t.read}
		}
		if err != nil {
			return Chunk{}, fmt.Errorf("sparse: entry %d of %d: %w", t.read+1, t.nnz, err)
		}
		i, j, v, err := parseTextEntry(line, t.rows, t.cols, t.pattern)
		if err != nil {
			return Chunk{}, err
		}
		t.read++
		if v == 0 {
			continue
		}
		t.buf = append(t.buf, Entry{Row: i - 1, Col: j - 1, Val: v})
		if t.symmetric && i != j {
			if j > t.rows || i > t.cols {
				return Chunk{}, fmt.Errorf("sparse: symmetric entry (%d, %d) cannot be mirrored", i, j)
			}
			t.buf = append(t.buf, Entry{Row: j - 1, Col: i - 1, Val: v})
		}
	}
	if len(t.buf) == 0 {
		if !t.done {
			t.done = true
		}
		return Chunk{}, io.EOF
	}
	return Chunk{Entries: t.buf}, nil
}

// countEntryLines counts the non-blank, non-comment lines left on sc.
func countEntryLines(sc *bufio.Scanner) int {
	n := 0
	for {
		if _, err := nextLine(sc); err != nil {
			return n
		}
		n++
	}
}
