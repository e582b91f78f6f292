package compress_test

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/sparse"
)

// ExampleCompressCRS reproduces the paper's Figure 4 for P0: compressing
// the first row block of the Figure 1 array and printing it in the
// paper's 1-based RO/CO/VL notation.
func ExampleCompressCRS() {
	local := sparse.PaperFigure1().SubMatrix(0, 0, 3, 8)
	m := compress.CompressCRS(local, nil)
	fmt.Print(m.FormatPaper())
	// Output:
	// RO    1   2   3   5
	// CO    2   7   1   8
	// VL    1   2   3   4
}

// p1Rows and allCols are P1's ownership maps in the worked example's
// row partition of Figure 1's 10 x 8 array.
var p1Rows, allCols = []int{3, 4, 5}, []int{0, 1, 2, 3, 4, 5, 6, 7}

// ExampleEncodeED shows the ED scheme's special buffer for P1 of the
// worked example (Figure 6/7): per-row counts, then alternating
// (global column, value) pairs.
func ExampleEncodeED() {
	g := sparse.PaperFigure1()
	buf := compress.EncodeED(g, p1Rows, allCols, compress.RowMajor, nil, nil)
	fmt.Print(compress.FormatEDBuffer(buf, 3))
	// Output:
	// R :   1   1   1
	// CV: (6,5) (4,6) (5,7)
}

// ExampleDecodeEDToCCS is the paper's Figure 7(d): P1 decodes its
// column-major buffer, subtracting 3 from the global row indices
// (Case 3.3.2).
func ExampleDecodeEDToCCS() {
	g := sparse.PaperFigure1()
	buf := compress.EncodeED(g, p1Rows, allCols, compress.ColMajor, nil, nil)
	m, err := compress.DecodeEDToCCS(buf, 3, 8, 3, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(m.FormatPaper())
	// Output:
	// RO    1   1   1   1   2   3   4   4   4
	// CO    2   3   1
	// VL    6   7   5
}
