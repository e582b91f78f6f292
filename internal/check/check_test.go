package check

import (
	"errors"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// rule asserts that err is a *Violation with the given form and rule.
func rule(t *testing.T, err error, form, want string) {
	t.Helper()
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("want *Violation %s/%s, got %v", form, want, err)
	}
	if v.Form != form || v.Rule != want {
		t.Fatalf("want violation %s/%s, got %s/%s (%s)", form, want, v.Form, v.Rule, v.Detail)
	}
}

func TestInvariantsAcceptCompressed(t *testing.T) {
	for _, g := range []*sparse.Dense{
		sparse.Uniform(9, 7, 0.3, 1),
		sparse.Uniform(1, 12, 0.5, 2),
		sparse.Uniform(12, 1, 0.5, 3),
		sparse.NewDense(0, 0),
		sparse.NewDense(0, 6),
		sparse.NewDense(6, 0),
		sparse.Uniform(5, 5, 0, 4),
		sparse.Uniform(5, 5, 1, 5),
	} {
		if err := CRS(compress.CompressCRS(g, nil)); err != nil {
			t.Errorf("CRS %dx%d: %v", g.Rows(), g.Cols(), err)
		}
		if err := CCS(compress.CompressCCS(g, nil)); err != nil {
			t.Errorf("CCS %dx%d: %v", g.Rows(), g.Cols(), err)
		}
		if err := JDS(compress.CompressJDS(g, nil)); err != nil {
			t.Errorf("JDS %dx%d: %v", g.Rows(), g.Cols(), err)
		}
	}
}

func TestInvariantsClassifyCorruption(t *testing.T) {
	g := sparse.Uniform(6, 6, 0.4, 7)
	cases := []struct {
		name    string
		corrupt func() (error, string, string)
	}{
		{"crs-nil", func() (error, string, string) {
			return CRS(nil), "CRS", "nil"
		}},
		{"crs-ptr-origin", func() (error, string, string) {
			m := compress.CompressCRS(g, nil)
			m.RowPtr[0] = 1
			return CRS(m), "CRS", "ptr-origin"
		}},
		{"crs-ptr-monotone", func() (error, string, string) {
			m := compress.CompressCRS(g, nil)
			m.RowPtr[2], m.RowPtr[3] = m.RowPtr[3]+1, m.RowPtr[2]
			return CRS(m), "CRS", "ptr-monotone"
		}},
		{"crs-ptr-total", func() (error, string, string) {
			m := compress.CompressCRS(g, nil)
			m.RowPtr[len(m.RowPtr)-1]++
			return CRS(m), "CRS", "ptr-total"
		}},
		{"crs-index-range", func() (error, string, string) {
			m := compress.CompressCRS(g, nil)
			m.ColIdx[0] = m.Cols
			return CRS(m), "CRS", "index-range"
		}},
		{"crs-explicit-zero", func() (error, string, string) {
			m := compress.CompressCRS(g, nil)
			m.Val[1] = 0
			return CRS(m), "CRS", "explicit-zero"
		}},
		{"crs-value-finite", func() (error, string, string) {
			m := compress.CompressCRS(g, nil)
			m.Val[0] = math.NaN()
			return CRS(m), "CRS", "value-finite"
		}},
		{"ccs-ptr-len", func() (error, string, string) {
			m := compress.CompressCCS(g, nil)
			m.ColPtr = m.ColPtr[:len(m.ColPtr)-1]
			return CCS(m), "CCS", "ptr-len"
		}},
		{"ccs-minor-ascending", func() (error, string, string) {
			m := compress.CompressCCS(g, nil)
			var j int
			for j = 0; j < m.Cols; j++ {
				if m.ColPtr[j+1]-m.ColPtr[j] >= 2 {
					break
				}
			}
			k := m.ColPtr[j]
			m.RowIdx[k], m.RowIdx[k+1] = m.RowIdx[k+1], m.RowIdx[k]
			return CCS(m), "CCS", "minor-ascending"
		}},
		{"ccs-idx-val-len", func() (error, string, string) {
			m := compress.CompressCCS(g, nil)
			m.RowIdx = append(m.RowIdx, 0)
			return CCS(m), "CCS", "idx-val-len"
		}},
		{"jds-perm-bijective", func() (error, string, string) {
			m := compress.CompressJDS(g, nil)
			m.Perm[0] = m.Perm[1]
			return JDS(m), "JDS", "perm-bijective"
		}},
		{"jds-diag-jagged", func() (error, string, string) {
			m := compress.CompressJDS(g, nil)
			// Rebuild pointers so a later diagonal outgrows an earlier one.
			if len(m.JDPtr) < 3 {
				t.Skip("need two diagonals")
			}
			m.JDPtr[1] = 1
			return JDS(m), "JDS", "diag-jagged"
		}},
		{"jds-perm-len", func() (error, string, string) {
			m := compress.CompressJDS(g, nil)
			m.Perm = m.Perm[:len(m.Perm)-1]
			return JDS(m), "JDS", "perm-len"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err, form, want := tc.corrupt()
			rule(t, err, form, want)
		})
	}
}

func TestEDBufferInvariants(t *testing.T) {
	g := sparse.Uniform(5, 8, 0.4, 11)
	buf := compress.EncodeED(g, []int{1, 2, 3}, []int{2, 3, 4, 5}, compress.RowMajor, nil, nil)
	if err := EDBuffer(buf, 3); err != nil {
		t.Fatalf("well-formed buffer rejected: %v", err)
	}
	minor := []int{2, 3, 4, 5} // the encoded global columns
	if err := EDBufferOwned(buf, 3, minor); err != nil {
		t.Fatalf("owned buffer rejected: %v", err)
	}

	bad := append([]float64(nil), buf...)
	bad[0] = -1
	rule(t, EDBuffer(bad, 3), "ED", "count-word")

	bad = append([]float64(nil), buf...)
	bad[0] = 0.5
	rule(t, EDBuffer(bad, 3), "ED", "count-word")

	bad = append([]float64(nil), buf...)
	bad[0]++ // counts promise more pairs than the buffer holds
	rule(t, EDBuffer(bad, 3), "ED", "pair-region")

	rule(t, EDBuffer(buf[:2], 3), "ED", "counts-short")
	rule(t, EDBuffer(buf, -1), "ED", "counts-negative")

	if nnz := (len(buf) - 3) / 2 * 2; nnz > 0 {
		bad = append([]float64(nil), buf...)
		bad[3] = 2.5 // first stored C word
		rule(t, EDBuffer(bad, 3), "ED", "index-word")

		bad = append([]float64(nil), buf...)
		bad[4] = 0 // first stored V word
		rule(t, EDBuffer(bad, 3), "ED", "value-word")

		bad = append([]float64(nil), buf...)
		bad[3] = 7 // a column outside [2, 6)
		rule(t, EDBufferOwned(bad, 3, minor), "ED", "index-owned")
	}
}

func TestArrayShape(t *testing.T) {
	m := compress.CompressCRS(sparse.Uniform(4, 6, 0.5, 13), nil)
	if err := ArrayShape(m, 4, 6); err != nil {
		t.Fatalf("matching shape rejected: %v", err)
	}
	rule(t, ArrayShape(m, 4, 5), "piece", "shape")
	rule(t, Array(nil), "piece", "nil")
}

// compressPieces compresses every part of g under part into format f
// straight from the global array — the oracle's trusted reference
// producer.
func compressPieces(t *testing.T, g *sparse.Dense, part partition.Partition, f *compress.Format) []Piece {
	t.Helper()
	arrays := make([]compress.PartArray, part.NumParts())
	for k := range arrays {
		arrays[k] = f.CompressPart(g, part.RowMap(k), part.ColMap(k), nil)
		// CompressPart stores global minor indices; localise them
		// through the part's minor ownership map as the engine does.
		minor := part.ColMap(k)
		if f.MinorIsRow {
			minor = part.RowMap(k)
		}
		if err := arrays[k].ConvertMinor(minor, nil); err != nil {
			t.Fatal(err)
		}
	}
	return Pieces(part, arrays)
}

func TestOracleRoundTrip(t *testing.T) {
	shapes := [][3]int{{9, 7, 3}, {1, 9, 4}, {9, 1, 4}, {2, 2, 5}, {0, 4, 2}, {4, 0, 2}, {0, 0, 1}}
	for _, sh := range shapes {
		rows, cols, p := sh[0], sh[1], sh[2]
		g := sparse.Uniform(rows, cols, 0.4, int64(rows*31+cols))
		parts := map[string]partition.Partition{}
		if rp, err := partition.NewRow(rows, cols, p); err == nil {
			parts["row"] = rp
		}
		if cp, err := partition.NewCol(rows, cols, p); err == nil {
			parts["col"] = cp
		}
		if mp, err := partition.NewMesh(rows, cols, 2, 2); err == nil {
			parts["mesh"] = mp
		}
		if cr, err := partition.NewCyclicRow(rows, cols, p); err == nil {
			parts["cyclic"] = cr
		}
		for name, part := range parts {
			for _, f := range []*compress.Format{compress.CRSFormat, compress.CCSFormat, compress.JDSFormat} {
				if err := Distribution(g, compressPieces(t, g, part, f)); err != nil {
					t.Errorf("%dx%d p=%d %s/%s: %v", rows, cols, p, name, f.Name, err)
				}
			}
		}
	}
}

func TestOracleCatchesMisplacedData(t *testing.T) {
	g := sparse.Uniform(8, 8, 0.5, 17)
	part, err := partition.NewRow(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pieces := compressPieces(t, g, part, compress.CRSFormat)

	// A value lands in the wrong place: DiffError, not a Violation.
	m := pieces[1].Array.(*compress.CRS)
	if len(m.Val) == 0 {
		t.Fatal("want nonzero part")
	}
	m.Val[0] += 1
	err = Distribution(g, pieces)
	var de *DiffError
	if !errors.As(err, &de) {
		t.Fatalf("want *DiffError, got %v", err)
	}
	if de.Mismatches != 1 {
		t.Fatalf("want 1 mismatch, got %d", de.Mismatches)
	}
	m.Val[0] -= 1

	// Two pieces claiming the same global rows: tile-once violation.
	pieces[2].RowMap = pieces[1].RowMap
	rule(t, Distribution(g, pieces), "piece", "tile-once")
	pieces[2].RowMap = part.RowMap(2)

	// An ownership map pointing outside the global array.
	pieces[3].RowMap = []int{6, 8}
	rule(t, Distribution(g, pieces), "piece", "map-range")
	pieces[3].RowMap = part.RowMap(3)

	// A decoded part whose shape disagrees with its maps.
	pieces[0].Array = compress.CompressCRS(sparse.NewDense(3, 8), nil)
	rule(t, Distribution(g, pieces), "piece", "shape")
}

func TestOracleCatchesDroppedCoverage(t *testing.T) {
	g := sparse.Uniform(6, 6, 0.8, 19)
	part, err := partition.NewRow(6, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	pieces := compressPieces(t, g, part, compress.CCSFormat)
	var de *DiffError
	if err := Distribution(g, pieces[:2]); !errors.As(err, &de) {
		t.Fatalf("dropped part not caught: %v", err)
	}
}

func TestAdversarialSuite(t *testing.T) {
	cases := Adversarial(200, 1)
	if len(cases) < 200 {
		t.Fatalf("want >= 200 cases, got %d", len(cases))
	}
	again := Adversarial(200, 1)
	var emptyDim, pGTRows, full, names int
	seen := map[string]bool{}
	for i, c := range cases {
		if c.G == nil || c.Procs < 1 {
			t.Fatalf("case %d (%s): invalid", i, c.Name)
		}
		if c.Name == "" || seen[c.Name] {
			t.Fatalf("case %d: empty or duplicate name %q", i, c.Name)
		}
		seen[c.Name] = true
		names++
		if c.G.Rows() == 0 || c.G.Cols() == 0 {
			emptyDim++
		}
		if c.Procs > c.G.Rows() {
			pGTRows++
		}
		if n := c.G.Size(); n > 0 && c.G.NNZ() == n {
			full++
		}
		if again[i].Name != c.Name || !again[i].G.Equal(c.G) {
			t.Fatalf("case %d not deterministic", i)
		}
	}
	if emptyDim == 0 || pGTRows == 0 || full == 0 {
		t.Fatalf("suite missing corners: emptyDim=%d pGTRows=%d full=%d", emptyDim, pGTRows, full)
	}
}
