package sparse

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestHBRoundTrip(t *testing.T) {
	c := FromDense(PaperFigure1())
	var buf bytes.Buffer
	if err := WriteHB(&buf, c, "paper figure 1 worked example", "FIG1"); err != nil {
		t.Fatal(err)
	}
	got, err := readHB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ToDense().Equal(c.ToDense()) {
		t.Error("HB round trip changed the array")
	}
}

func TestHBRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := FromDense(Uniform(17, 11, 0.25, seed))
		var buf bytes.Buffer
		if err := WriteHB(&buf, c, "prop", "K"); err != nil {
			return false
		}
		got, err := readHB(&buf)
		if err != nil {
			return false
		}
		return got.ToDense().ApproxEqual(c.ToDense(), 1e-11)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHBHeaderLayout(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1.5)
	var buf bytes.Buffer
	if err := WriteHB(&buf, c, "title", "KEY"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if len(lines) < 5 {
		t.Fatalf("only %d lines", len(lines))
	}
	if len(lines[0]) != 80 {
		t.Errorf("title line is %d chars, want 80", len(lines[0]))
	}
	if !strings.HasPrefix(lines[2], "RUA") {
		t.Errorf("type line = %q, want RUA prefix", lines[2])
	}
	if !strings.Contains(lines[3], "(10I8)") || !strings.Contains(lines[3], "(4E20.12)") {
		t.Errorf("format line = %q", lines[3])
	}
}

// hand-written HB fixture with Fortran D exponents and RSA symmetry.
const hbSymmetric = `symmetric test matrix                                                   SYM1
             5             1             1             1             0
RSA                         3             3             4             0
(4I8)           (8I4)           (4D20.12)
       1       3       4       5
   1   3   2   3
  0.200000000000D+01 -0.100000000000D+01  0.300000000000D+01  0.400000000000D+01
`

func TestReadHBSymmetricExpansion(t *testing.T) {
	c, err := readHB(strings.NewReader(hbSymmetric))
	if err != nil {
		t.Fatal(err)
	}
	d := c.ToDense()
	// Column 0 held (1,1)=2 and (3,1)=-1; expansion adds (1,3)=-1.
	if d.At(0, 0) != 2 || d.At(2, 0) != -1 || d.At(0, 2) != -1 {
		t.Errorf("symmetric expansion wrong: %v", d)
	}
	if d.At(1, 1) != 3 || d.At(2, 2) != 4 {
		t.Errorf("diagonal entries wrong: %v", d)
	}
	if c.NNZ() != 5 { // 4 stored + 1 mirrored
		t.Errorf("NNZ = %d, want 5", c.NNZ())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d.At(i, j) != d.At(j, i) {
				t.Fatalf("not symmetric at (%d, %d)", i, j)
			}
		}
	}
}

const hbPattern = `pattern matrix                                                          PAT1
             2             1             1             0             0
PUA                         2             3             3             0
(4I8)           (8I4)
       1       2       3       4
   1   2   1
`

func TestReadHBPatternUnitValues(t *testing.T) {
	c, err := readHB(strings.NewReader(hbPattern))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", c.NNZ())
	}
	for _, e := range c.Entries {
		if e.Val != 1 {
			t.Errorf("pattern entry value %g, want 1", e.Val)
		}
	}
	d := c.ToDense()
	if d.At(0, 0) != 1 || d.At(1, 1) != 1 || d.At(0, 2) != 1 {
		t.Errorf("pattern positions wrong: %v", d)
	}
}

// hbHostileHeader is a complete five-line file whose header declares
// ncol columns. A parser that sizes its pointer read from NCOL alone
// panics in makeslice at NCOL = MaxInt and asks for 32 GB at 2·10⁹ —
// for a file the daemon opens by a client-supplied name.
func hbHostileHeader(ncol string) string {
	return "t\n1 1 1 1 0\nRUA            1 " + ncol + " 1 0\n" +
		"(4I8)           (8I4)           (4E20.12)\n       1       2\n"
}

// hbErrorCases are the malformed Harwell-Boeing files TestReadHBErrors
// rejects one by one; FuzzOpenStream starts from them too.
var hbErrorCases = []struct {
	name, in string
}{
	{"empty", ""},
	{"missing counts", "title\n"},
	{"bad counts", "title\na b c d e\nRUA 1 1 1 0\n"},
	{"unsupported type", "t\n1 1 1 1 0\nCUA        1 1 1 0\n(4I8)           (4I8)           (4E20.12)\n"},
	{"bad pointer total", "t\n3 1 1 1 0\nRUA            2 2 2 0\n(4I8)           (8I4)           (4E20.12)\n       1       2       9\n   1   2\n  1.0                 2.0\n"},
	{"ncol overflows", hbHostileHeader("9223372036854775807")},
	{"ncol beyond the file", hbHostileHeader("2000000000")},
}

func TestReadHBErrors(t *testing.T) {
	for _, c := range hbErrorCases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := readHB(strings.NewReader(c.in)); err == nil {
				t.Error("malformed HB accepted")
			}
		})
	}
}

func TestParseFortranFormat(t *testing.T) {
	cases := map[string]fortranFormat{
		"(10I8)":     {count: 10, width: 8, kind: 'I'},
		"(4E20.12)":  {count: 4, width: 20, kind: 'E'},
		"(1P4D16.8)": {count: 4, width: 16, kind: 'D'},
		"(8F10.3)":   {count: 8, width: 10, kind: 'F'},
		"(5G25.16)":  {count: 5, width: 25, kind: 'E'},
		"I8":         {count: 1, width: 8, kind: 'I'},
	}
	for in, want := range cases {
		got, err := parseFortranFormat(in)
		if err != nil {
			t.Errorf("parseFortranFormat(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("parseFortranFormat(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"", "()", "(XYZ)", "(4Q8)", "(0I8)", "(4I)"} {
		if _, err := parseFortranFormat(bad); err == nil {
			t.Errorf("parseFortranFormat(%q) accepted", bad)
		}
	}
}

func TestFortranFloat(t *testing.T) {
	cases := map[string]string{
		"0.15D+01": "0.15E+01",
		" 1.5e2 ":  "1.5e2",
		"2.5":      "2.5",
	}
	for in, want := range cases {
		if got := fortranFloat(in); got != want {
			t.Errorf("fortranFloat(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteHBRejectsInvalid(t *testing.T) {
	c := NewCOO(2, 2)
	c.Entries = append(c.Entries, Entry{Row: 5, Col: 0, Val: 1})
	var buf bytes.Buffer
	if err := WriteHB(&buf, c, "t", "k"); err == nil {
		t.Error("invalid COO accepted")
	}
}
