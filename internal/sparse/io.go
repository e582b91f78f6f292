package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text I/O in a Matrix-Market-like coordinate format. The paper cites the
// Harwell-Boeing sparse matrix collection as the source of realistic
// sparse ratios; this reader/writer lets the command-line tools exchange
// matrices in the collection's spirit (1-based coordinate triplets with a
// size header) without the fixed-column Fortran layout.
//
// Format:
//
//	%%SparseArray coordinate
//	% comment lines start with %
//	<rows> <cols> <nnz>
//	<row> <col> <value>        (1-based, one entry per line)

const textHeader = "%%SparseArray coordinate"

// NNZMismatchError reports a coordinate file whose header-declared
// entry count disagrees with the entry lines actually present — a
// truncated download or a miscounted header, either of which would
// silently distribute the wrong array if accepted.
type NNZMismatchError struct {
	// Header is the count declared on the size line; Actual is the
	// number of entry lines found on file.
	Header, Actual int
}

func (e *NNZMismatchError) Error() string {
	return fmt.Sprintf("sparse: header declares %d entries but file has %d", e.Header, e.Actual)
}

// WriteText writes the COO to w in the text coordinate format. Entries
// are written in their current order.
func WriteText(w io.Writer, c *COO) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s\n%d %d %d\n", textHeader, c.Rows, c.Cols, c.NNZ()); err != nil {
		return fmt.Errorf("sparse: writing header: %w", err)
	}
	for _, e := range c.Entries {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", e.Row+1, e.Col+1, e.Val); err != nil {
			return fmt.Errorf("sparse: writing entry: %w", err)
		}
	}
	return bw.Flush()
}

// textBanner is what the "%%" header line declares about the payload.
type textBanner struct {
	symmetric bool
	pattern   bool
}

// parseTextBanner interprets the "%%" banner line. It is mostly
// advisory so files from other coordinate-format tools load too, but a
// MatrixMarket "symmetric" qualifier is honoured (the lower triangle on
// file is mirrored on read) and unsupported fields are rejected.
func parseTextBanner(line string) (textBanner, error) {
	if !strings.HasPrefix(line, "%%") {
		return textBanner{}, fmt.Errorf("sparse: missing %%%% header, got %q", line)
	}
	banner := strings.ToLower(line)
	if strings.Contains(banner, "complex") || strings.Contains(banner, "hermitian") {
		return textBanner{}, fmt.Errorf("sparse: unsupported field in banner %q", line)
	}
	return textBanner{
		symmetric: strings.Contains(banner, "symmetric"),
		pattern:   strings.Contains(banner, "pattern"),
	}, nil
}

// parseTextSize parses the "<rows> <cols> <nnz>" size line.
func parseTextSize(line string) (rows, cols, nnz int, err error) {
	f := strings.Fields(line)
	if len(f) != 3 {
		return 0, 0, 0, fmt.Errorf("sparse: size line %q: want 3 fields", line)
	}
	rows, err = strconv.Atoi(f[0])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sparse: bad row count %q: %w", f[0], err)
	}
	cols, err = strconv.Atoi(f[1])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sparse: bad col count %q: %w", f[1], err)
	}
	nnz, err = strconv.Atoi(f[2])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sparse: bad nnz count %q: %w", f[2], err)
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return 0, 0, 0, fmt.Errorf("sparse: negative size field in %q", line)
	}
	return rows, cols, nnz, nil
}

// parseTextEntry parses one 1-based entry line and range-checks it
// against the declared shape. Pattern files carry no value column and
// get an implicit 1.
func parseTextEntry(line string, rows, cols int, pattern bool) (i, j int, v float64, err error) {
	f := strings.Fields(line)
	wantFields := 3
	if pattern {
		wantFields = 2
	}
	if len(f) != wantFields {
		return 0, 0, 0, fmt.Errorf("sparse: entry line %q: want %d fields", line, wantFields)
	}
	i, err = strconv.Atoi(f[0])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sparse: bad row index %q: %w", f[0], err)
	}
	j, err = strconv.Atoi(f[1])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sparse: bad col index %q: %w", f[1], err)
	}
	v = 1.0
	if !pattern {
		v, err = strconv.ParseFloat(f[2], 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("sparse: bad value %q: %w", f[2], err)
		}
	}
	if i < 1 || i > rows || j < 1 || j > cols {
		return 0, 0, 0, fmt.Errorf("sparse: entry (%d, %d) out of range %dx%d", i, j, rows, cols)
	}
	return i, j, v, nil
}

// nextLine returns the next non-empty, non-comment line.
func nextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "%") && !strings.HasPrefix(line, "%%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
