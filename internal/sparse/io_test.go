package sparse

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestTextRoundTrip(t *testing.T) {
	c := FromDense(PaperFigure1())
	var buf bytes.Buffer
	if err := WriteText(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := readText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().Equal(c.ToDense()) {
		t.Error("text round trip changed the array")
	}
}

func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := FromDense(Uniform(13, 7, 0.3, seed))
		var buf bytes.Buffer
		if err := WriteText(&buf, c); err != nil {
			return false
		}
		got, err := readText(&buf)
		if err != nil {
			return false
		}
		return got.ToDense().Equal(c.ToDense())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadTextCommentsAndBlanks(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment

3 3 2
1 1 1.5

% another comment
3 3 -2
`
	c, err := readText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 3 || c.Cols != 3 || c.NNZ() != 2 {
		t.Fatalf("parsed %dx%d nnz %d, want 3x3 nnz 2", c.Rows, c.Cols, c.NNZ())
	}
	if c.ToDense().At(2, 2) != -2 {
		t.Error("value at (3,3) not parsed")
	}
}

func TestReadTextDropsExplicitZeros(t *testing.T) {
	in := "%%SparseArray coordinate\n2 2 2\n1 1 0\n2 2 5\n"
	c, err := readText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1 (explicit zero dropped)", c.NNZ())
	}
}

func TestReadTextMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 2
2 1 -1
3 3 4
`
	c, err := readText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	d := c.ToDense()
	if d.At(0, 1) != -1 || d.At(1, 0) != -1 {
		t.Errorf("off-diagonal not mirrored: %v", d)
	}
	if d.At(0, 0) != 2 || d.At(2, 2) != 4 {
		t.Errorf("diagonal wrong: %v", d)
	}
	if c.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4", c.NNZ())
	}
}

func TestReadTextMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 3 2
1 2
2 3
`
	c, err := readText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d", c.NNZ())
	}
	for _, e := range c.Entries {
		if e.Val != 1 {
			t.Errorf("pattern value %g, want 1", e.Val)
		}
	}
}

func TestReadTextRejectsComplex(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"
	if _, err := readText(strings.NewReader(in)); err == nil {
		t.Error("complex banner accepted")
	}
}

// textErrorCases are the malformed coordinate files TestReadTextErrors
// rejects one by one; FuzzOpenStream starts from them too.
var textErrorCases = []struct {
	name, in string
}{
	{"empty", ""},
	{"no header", "3 3 1\n1 1 1\n"},
	{"short size", "%%X\n3 3\n"},
	{"bad nnz", "%%X\n3 3 x\n"},
	{"truncated entries", "%%X\n3 3 2\n1 1 1\n"},
	{"out of range", "%%X\n2 2 1\n3 1 1\n"},
	{"zero index", "%%X\n2 2 1\n0 1 1\n"},
	{"bad value", "%%X\n2 2 1\n1 1 abc\n"},
	{"negative size", "%%X\n-1 2 0\n"},
}

func TestReadTextErrors(t *testing.T) {
	for _, c := range textErrorCases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := readText(strings.NewReader(c.in)); err == nil {
				t.Errorf("readText(%q) succeeded, want error", c.in)
			}
		})
	}
}

func TestLocalStats(t *testing.T) {
	a := NewDense(2, 2) // empty: ratio 0
	b := NewDense(2, 2)
	b.Set(0, 0, 1)
	b.Set(1, 1, 1) // ratio 0.5
	st := LocalStats([]*Dense{a, b})
	if st.GlobalNNZ != 2 {
		t.Errorf("GlobalNNZ = %d, want 2", st.GlobalNNZ)
	}
	if st.GlobalRatio != 0.25 {
		t.Errorf("GlobalRatio = %g, want 0.25", st.GlobalRatio)
	}
	if st.MaxRatio != 0.5 || st.MinRatio != 0 {
		t.Errorf("ratios = [%g, %g], want [0, 0.5]", st.MinRatio, st.MaxRatio)
	}
	if st.MaxLocalNNZ != 2 {
		t.Errorf("MaxLocalNNZ = %d, want 2", st.MaxLocalNNZ)
	}
}

func TestSpy(t *testing.T) {
	// Banded array: the spy plot's marked cells hug the diagonal.
	d := Banded(40, 40, 2, 1.0, 1)
	out := Spy(d, 10, 10)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 11 {
		t.Fatalf("spy lines = %d, want 11 (header + 10 rows)", len(lines))
	}
	if !strings.Contains(lines[0], "40x40") {
		t.Errorf("header = %q", lines[0])
	}
	// Row r's marks must sit near column r.
	for r := 1; r <= 10; r++ {
		line := lines[r]
		for c := 0; c < len(line); c++ {
			if line[c] != ' ' && abs(c-(r-1)) > 1 {
				t.Errorf("spy mark at (%d, %d) far from diagonal:\n%s", r-1, c, out)
			}
		}
	}
	if !strings.Contains(Spy(NewDense(0, 0), 5, 5), "empty") {
		t.Error("empty spy wrong")
	}
	// Width larger than the array clamps.
	if got := Spy(NewDense(2, 2), 10, 10); !strings.Contains(got, "2x2") {
		t.Errorf("clamped spy = %q", got)
	}
}

func TestRowNNZ(t *testing.T) {
	d := PaperFigure1()
	rows := RowNNZ(d)
	wantRows := []int{1, 1, 2, 1, 1, 1, 1, 2, 3, 3}
	for i, w := range wantRows {
		if rows[i] != w {
			t.Errorf("RowNNZ[%d] = %d, want %d", i, rows[i], w)
		}
	}
}
