package sparse

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Harwell-Boeing exchange format (the collection the paper cites for its
// "over 80% of sparse applications have s < 0.1" statistic). The format
// is column-compressed with Fortran fixed-width fields:
//
//	line 1: TITLE (A72), KEY (A8)
//	line 2: TOTCRD PTRCRD INDCRD VALCRD RHSCRD (5I14)
//	line 3: MXTYPE (A3), blank (11X), NROW NCOL NNZERO NELTVL (4I14)
//	line 4: PTRFMT INDFMT (2A16), VALFMT RHSFMT (2A20)
//	then column pointers, row indices and values in the stated formats.
//
// Supported matrix types: R?A (real assembled) and P?A (pattern); the
// symmetric variants RSA/PSA are expanded to full storage on read.
// Writing always emits RUA with (10I8) pointers/indices and (4E20.12)
// values.

// WriteHB writes the COO in Harwell-Boeing RUA format. title and key
// are truncated to 72 and 8 characters.
func WriteHB(w io.Writer, c *COO, title, key string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	s := c.Clone()
	sort.Slice(s.Entries, func(a, b int) bool {
		ea, eb := s.Entries[a], s.Entries[b]
		if ea.Col != eb.Col {
			return ea.Col < eb.Col
		}
		return ea.Row < eb.Row
	})

	// Column pointers (1-based, ncol+1 of them).
	ptr := make([]int, s.Cols+1)
	pos := 0
	for j := 0; j < s.Cols; j++ {
		ptr[j] = pos + 1
		for pos < len(s.Entries) && s.Entries[pos].Col == j {
			pos++
		}
	}
	ptr[s.Cols] = pos + 1

	ind := make([]int, len(s.Entries))
	for k, e := range s.Entries {
		ind[k] = e.Row + 1
	}

	ptrLines := fortranIntLines(ptr, 10, 8)
	indLines := fortranIntLines(ind, 10, 8)
	var valLines []string
	{
		var sb strings.Builder
		for k, e := range s.Entries {
			fmt.Fprintf(&sb, "%20.12E", e.Val)
			if (k+1)%4 == 0 {
				valLines = append(valLines, sb.String())
				sb.Reset()
			}
		}
		if sb.Len() > 0 {
			valLines = append(valLines, sb.String())
		}
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-72s%-8s\n", clip(title, 72), clip(key, 8))
	tot := len(ptrLines) + len(indLines) + len(valLines)
	fmt.Fprintf(bw, "%14d%14d%14d%14d%14d\n", tot, len(ptrLines), len(indLines), len(valLines), 0)
	fmt.Fprintf(bw, "%-3s%11s%14d%14d%14d%14d\n", "RUA", "", s.Rows, s.Cols, len(s.Entries), 0)
	fmt.Fprintf(bw, "%-16s%-16s%-20s%-20s\n", "(10I8)", "(10I8)", "(4E20.12)", "")
	for _, lines := range [][]string{ptrLines, indLines, valLines} {
		for _, l := range lines {
			fmt.Fprintln(bw, l)
		}
	}
	return bw.Flush()
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func fortranIntLines(vals []int, perLine, width int) []string {
	var out []string
	var sb strings.Builder
	for k, v := range vals {
		fmt.Fprintf(&sb, "%*d", width, v)
		if (k+1)%perLine == 0 {
			out = append(out, sb.String())
			sb.Reset()
		}
	}
	if sb.Len() > 0 {
		out = append(out, sb.String())
	}
	return out
}

// fortranFormat is a parsed (nXw.d) edit descriptor.
type fortranFormat struct {
	count, width int
	kind         byte // 'I', 'E', 'F', 'D'
}

func parseFortranFormat(s string) (fortranFormat, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.TrimPrefix(t, "(")
	t = strings.TrimSuffix(t, ")")
	// Accept an optional repeat-of-group like 1P before the descriptor.
	t = strings.TrimPrefix(t, "1P")
	t = strings.TrimPrefix(t, ",")
	i := 0
	for i < len(t) && t[i] >= '0' && t[i] <= '9' {
		i++
	}
	if i == len(t) {
		return fortranFormat{}, fmt.Errorf("sparse: bad Fortran format %q", s)
	}
	count := 1
	if i > 0 {
		count, _ = strconv.Atoi(t[:i])
	}
	kind := t[i]
	if kind != 'I' && kind != 'E' && kind != 'F' && kind != 'D' && kind != 'G' {
		return fortranFormat{}, fmt.Errorf("sparse: unsupported Fortran descriptor %q", s)
	}
	if kind == 'G' {
		kind = 'E'
	}
	j := i + 1
	for j < len(t) && t[j] >= '0' && t[j] <= '9' {
		j++
	}
	if j == i+1 {
		return fortranFormat{}, fmt.Errorf("sparse: missing width in %q", s)
	}
	width, _ := strconv.Atoi(t[i+1 : j])
	if count <= 0 || width <= 0 {
		return fortranFormat{}, fmt.Errorf("sparse: non-positive count/width in %q", s)
	}
	return fortranFormat{count: count, width: width, kind: kind}, nil
}

func fixedField(line string, lo, n int) string {
	if lo >= len(line) {
		return ""
	}
	hi := lo + n
	if hi > len(line) {
		hi = len(line)
	}
	return line[lo:hi]
}

// fortranFloat normalises Fortran exponent spellings (1.5D+02, 1.5E02)
// to Go-parsable form.
func fortranFloat(s string) string {
	s = strings.TrimSpace(s)
	s = strings.ReplaceAll(s, "D", "E")
	s = strings.ReplaceAll(s, "d", "E")
	return s
}
