package compress

import (
	"strings"
	"testing"

	"repro/internal/sparse"
)

func TestFormatPaperCRSFigure4(t *testing.T) {
	// P0 of the row-partitioned Figure 1 array: RO = 1 2 3 5 in the
	// paper's 1-based notation.
	m := CompressCRS(sparse.PaperFigure1().SubMatrix(0, 0, 3, 8), nil)
	out := m.FormatPaper()
	if !strings.Contains(out, "RO    1   2   3   5") {
		t.Errorf("RO row not in paper notation:\n%s", out)
	}
	if !strings.Contains(out, "CO    2   7   1   8") {
		t.Errorf("CO row not in paper notation:\n%s", out)
	}
	if !strings.Contains(out, "VL    1   2   3   4") {
		t.Errorf("VL row wrong:\n%s", out)
	}
}

func TestFormatPaperCCS(t *testing.T) {
	m := CompressCCS(sparse.PaperFigure1().SubMatrix(3, 0, 3, 8), nil)
	out := m.FormatPaper()
	// Column pointers (1-based): 1 1 1 1 2 3 4 4 4.
	if !strings.Contains(out, "RO    1   1   1   1   2   3   4   4   4") {
		t.Errorf("CCS RO row wrong:\n%s", out)
	}
	if !strings.Contains(out, "VL    6   7   5") {
		t.Errorf("CCS VL row wrong:\n%s", out)
	}
}

func TestFormatEDBuffer(t *testing.T) {
	buf := encodeRect(sparse.PaperFigure1(), 3, 0, 3, 8, RowMajor, nil)
	out := FormatEDBuffer(buf, 3)
	if !strings.Contains(out, "R :   1   1   1") {
		t.Errorf("counts region wrong:\n%s", out)
	}
	// Pairs with 1-based global columns: (6,5) (4,6) (5,7).
	for _, want := range []string{"(6,5)", "(4,6)", "(5,7)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing pair %s:\n%s", want, out)
		}
	}
	if !strings.Contains(FormatEDBuffer(buf, 99), "invalid") {
		t.Error("invalid counts not reported")
	}
}
