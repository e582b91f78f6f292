package compress

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/sparse"
)

func TestConvertColsToLocalStrided(t *testing.T) {
	// Cyclic column ownership {1, 3, 5}: global 3 -> local 1, etc.
	g := sparse.NewDense(2, 6)
	g.Set(0, 1, 1)
	g.Set(0, 5, 2)
	g.Set(1, 3, 3)
	colMap := []int{1, 3, 5}
	m := &CRS{Rows: 2, Cols: 3, RowPtr: []int{0, 2, 3}, ColIdx: []int{1, 5, 3}, Val: []float64{1, 2, 3}}
	var ctr cost.Counter
	if err := m.ConvertColsToLocal(colMap, &ctr); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 1}
	for k, w := range want {
		if m.ColIdx[k] != w {
			t.Errorf("ColIdx[%d] = %d, want %d", k, m.ColIdx[k], w)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if ctr.Ops != 3 {
		t.Errorf("conversion ops = %d, want 3", ctr.Ops)
	}
}

func TestConvertColsToLocalUnowned(t *testing.T) {
	m := &CRS{Rows: 1, Cols: 2, RowPtr: []int{0, 1}, ColIdx: []int{4}, Val: []float64{1}}
	if err := m.ConvertColsToLocal([]int{1, 3}, nil); err == nil {
		t.Error("unowned global index accepted")
	}
}

func TestConvertRowsToLocal(t *testing.T) {
	rowMap := []int{2, 5, 8}
	m := &CCS{Rows: 3, Cols: 2, ColPtr: []int{0, 2, 3}, RowIdx: []int{2, 8, 5}, Val: []float64{1, 2, 3}}
	if err := m.ConvertRowsToLocal(rowMap, nil); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 1}
	for k, w := range want {
		if m.RowIdx[k] != w {
			t.Errorf("RowIdx[%d] = %d, want %d", k, m.RowIdx[k], w)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.ConvertRowsToLocal([]int{0}, nil); err == nil {
		t.Error("second conversion against wrong map accepted")
	}
}

// blockCases are the rectangles the one route is held to the accessor
// forms on: random interior rectangles of a UniformExact array
// plus the degenerate shapes — no rows, no columns, an all-zero block
// and a fully dense one (where the headroom check has no slack).
func blockCases() (g *sparse.Dense, rects [][4]int) {
	const n = 48
	g = sparse.UniformExact(n, n, 0.2, 11)
	for i := 0; i < 8; i++ { // an all-zero block and a fully dense one
		for j := 0; j < 8; j++ {
			g.Set(i, j, 0)
			g.Set(n-1-i, n-1-j, float64(1+i+j))
		}
	}
	rects = [][4]int{
		{0, 0, n, n},
		{5, 0, 0, n},         // nr = 0
		{0, 7, n, 0},         // nc = 0
		{0, 0, 8, 8},         // all zero
		{n - 8, n - 8, 8, 8}, // fully dense
	}
	rng := rand.New(rand.NewSource(5))
	for len(rects) < 40 {
		r0, c0 := rng.Intn(n), rng.Intn(n)
		rects = append(rects, [4]int{r0, c0, 1 + rng.Intn(n-r0), 1 + rng.Intn(n-c0)})
	}
	return g, rects
}

// TestEncodeEDPartMatchesRect pins EncodeED to its accessor-form
// reference: for every rectangle and both layouts the two produce the
// same words and charge the same total, whether EncodeED starts from no
// buffer or from a reused one full of another part's words — too small,
// large enough only until the last lines, or large. FuzzEncodePart
// extends the pin to strided maps.
func TestEncodeEDPartMatchesRect(t *testing.T) {
	g, rects := blockCases()
	garbage := func(n int) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = -7.5
		}
		return b[:0]
	}
	for _, rc := range rects {
		r0, c0, nr, nc := rc[0], rc[1], rc[2], rc[3]
		rowMap, colMap := rangeIntsTest(r0, r0+nr), rangeIntsTest(c0, c0+nc)
		for _, major := range []Major{RowMajor, ColMajor} {
			var wantCtr cost.Counter
			want := EncodeEDPart(g.At, rowMap, colMap, major, &wantCtr)
			counts := nr
			if major == ColMajor {
				counts = nc
			}
			if ops := int64(nr*nc + 3*(len(want)-counts)/2); wantCtr.Ops != ops {
				t.Fatalf("%v %v: accessor form charged %d ops, want cells + 3·nnz = %d", rc, major, wantCtr.Ops, ops)
			}
			for name, buf := range map[string][]float64{
				"fresh":                nil,
				"reused, too small":    garbage(3),
				"reused, grown midway": garbage(len(want)), // no line of headroom near the end
				"reused, large":        garbage(3 * 48 * 48),
			} {
				var ctr cost.Counter
				got := EncodeED(g, rowMap, colMap, major, buf, &ctr)
				if !slices.Equal(got, want) {
					t.Errorf("%v %v %s: EncodeED and accessor form differ\n got %v\nwant %v", rc, major, name, got, want)
				}
				if ctr != wantCtr {
					t.Errorf("%v %v %s: EncodeED charged %v, accessor form %v", rc, major, name, ctr, wantCtr)
				}
			}
		}
	}
}

// TestCompressRectMatchesPartGlobal is the same pin for CFS's root
// compress, in every registered format: CompressPart returns the array
// the accessor form returns, global minor indices included, for the
// same charge.
func TestCompressRectMatchesPartGlobal(t *testing.T) {
	g, rects := blockCases()
	for _, f := range testFormats {
		name := f.Name
		for _, rc := range rects {
			r0, c0, nr, nc := rc[0], rc[1], rc[2], rc[3]
			rowMap, colMap := rangeIntsTest(r0, r0+nr), rangeIntsTest(c0, c0+nc)
			var ctr, wantCtr cost.Counter
			got := f.CompressPart(g, rowMap, colMap, &ctr)
			want := compressPartGlobal(f, g.At, rowMap, colMap, &wantCtr)
			if !partArraysEqual(got, want) {
				t.Errorf("%s %v: CompressPart and accessor form differ\n got %+v\nwant %+v", name, rc, got, want)
			}
			if ctr != wantCtr {
				t.Errorf("%s %v: CompressPart charged %v, accessor form %v", name, rc, ctr, wantCtr)
			}
		}
	}
}

func partArraysEqual(a, b PartArray) bool {
	switch a := a.(type) {
	case *CRS:
		b, ok := b.(*CRS)
		return ok && a.Equal(b)
	case *CCS:
		b, ok := b.(*CCS)
		return ok && a.Equal(b)
	case *JDS:
		b, ok := b.(*JDS)
		return ok && a.Equal(b)
	}
	return false
}

func TestEDMapRoundTripCyclic(t *testing.T) {
	// Cyclic row partition: part 1 of 3 owns rows {1, 4, 7, 10}.
	g := sparse.Uniform(12, 9, 0.3, 4)
	rowMap := []int{1, 4, 7, 10}
	colMap := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}

	buf := EncodeEDPart(g.At, rowMap, colMap, RowMajor, nil)
	crs, err := DecodeEDToCRSMap(buf, len(rowMap), colMap, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.NewDense(len(rowMap), len(colMap))
	for li, gi := range rowMap {
		for lj, gj := range colMap {
			want.Set(li, lj, g.At(gi, gj))
		}
	}
	if !crs.Decompress().Equal(want) {
		t.Error("cyclic ED CRS round trip mismatch")
	}

	cbuf := EncodeEDPart(g.At, rowMap, colMap, ColMajor, nil)
	ccs, err := DecodeEDToCCSMap(cbuf, len(colMap), rowMap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ccs.Decompress().Equal(want) {
		t.Error("cyclic ED CCS round trip mismatch")
	}
}

func TestDecodeEDMapErrors(t *testing.T) {
	g := sparse.PaperFigure1()
	colMap := []int{0, 1, 2, 3, 4, 5, 6, 7}
	buf := EncodeEDPart(g.At, []int{0, 1, 2}, colMap, RowMajor, nil)

	if _, err := DecodeEDToCRSMap(buf[:1], 3, colMap, nil); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := DecodeEDToCRSMap(buf[:len(buf)-1], 3, colMap, nil); err == nil {
		t.Error("truncated buffer accepted")
	}
	// Map that does not own the stored columns.
	if _, err := DecodeEDToCRSMap(buf, 3, []int{90, 91}, nil); err == nil {
		t.Error("foreign ownership map accepted")
	}

	cbuf := EncodeEDPart(g.At, []int{0, 1, 2}, colMap, ColMajor, nil)
	if _, err := DecodeEDToCCSMap(cbuf, 8, []int{50}, nil); err == nil {
		t.Error("foreign row map accepted")
	}
	if _, err := DecodeEDToCCSMap(cbuf[:2], 8, []int{0, 1, 2}, nil); err == nil {
		t.Error("short CCS buffer accepted")
	}
}
