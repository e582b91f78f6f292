package compress

import (
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/sparse"
)

func TestFigure6BufferLayoutRowMajor(t *testing.T) {
	// Figure 6/7: the special buffer stores the per-row counts R_i and
	// then alternating (C, V) pairs with C a *global* index. For P1
	// (rows 3-5 of Figure 1) under the row partition with the CRS
	// layout: counts [1 1 1], pairs (5,5) (3,6) (4,7) with global
	// column indices.
	g := sparse.PaperFigure1()
	buf := encodeRect(g, 3, 0, 3, 8, RowMajor, nil)
	want := []float64{1, 1, 1, 5, 5, 3, 6, 4, 7}
	if len(buf) != len(want) {
		t.Fatalf("buffer length = %d, want %d", len(buf), len(want))
	}
	for i, w := range want {
		if buf[i] != w {
			t.Errorf("buf[%d] = %g, want %g", i, buf[i], w)
		}
	}
}

func TestFigure7BufferColMajor(t *testing.T) {
	// Figure 7(b): the column-major (CCS layout) special buffer for P1.
	// Counts per column: [0 0 0 1 1 1 0 0]; pairs carry *global* row
	// indices: (4,6) for col 3, (5,7) for col 4, (3,5) for col 5.
	g := sparse.PaperFigure1()
	buf := encodeRect(g, 3, 0, 3, 8, ColMajor, nil)
	want := []float64{0, 0, 0, 1, 1, 1, 0, 0, 4, 6, 5, 7, 3, 5}
	if len(buf) != len(want) {
		t.Fatalf("buffer length = %d, want %d", len(buf), len(want))
	}
	for i, w := range want {
		if buf[i] != w {
			t.Errorf("buf[%d] = %g, want %g", i, buf[i], w)
		}
	}
}

func TestFigure7EDDecode(t *testing.T) {
	// Figure 7(d): P1 decodes its buffer, subtracting 3 from the global
	// row indices (Case 3.3.2), yielding the same CCS as compressing the
	// local piece directly.
	g := sparse.PaperFigure1()
	buf := encodeRect(g, 3, 0, 3, 8, ColMajor, nil)
	got, err := DecodeEDToCCS(buf, 3, 8, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := CompressCCS(g.SubMatrix(3, 0, 3, 8), nil)
	if !got.Equal(want) {
		t.Error("ED decode with offset 3 disagrees with direct CCS compression")
	}
}

func TestEDRowMajorRoundTripNoOffset(t *testing.T) {
	// Case 3.3.1: row partition + CRS layout needs no conversion.
	g := sparse.PaperFigure1()
	buf := encodeRect(g, 6, 0, 3, 8, RowMajor, nil)
	got, err := DecodeEDToCRS(buf, 3, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := CompressCRS(g.SubMatrix(6, 0, 3, 8), nil)
	if !got.Equal(want) {
		t.Error("ED row-major round trip disagrees with direct CRS compression")
	}
}

func TestEDMeshCase333(t *testing.T) {
	// Case 3.3.3: 2D mesh partition + CRS layout; the receiver subtracts
	// the number of columns to its left in the mesh row.
	g := sparse.PaperFigure1()
	// Mesh piece: rows 5-9, cols 4-7 (bottom-right of a 2x2 mesh).
	buf := encodeRect(g, 5, 4, 5, 4, RowMajor, nil)
	got, err := DecodeEDToCRS(buf, 5, 4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := CompressCRS(g.SubMatrix(5, 4, 5, 4), nil)
	if !got.Equal(want) {
		t.Error("mesh ED decode disagrees with direct compression")
	}
}

func TestEDRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := sparse.Uniform(12, 10, 0.3, seed)
		// Arbitrary interior rectangle.
		r0, c0, nr, nc := 3, 2, 6, 7
		rowBuf := encodeRect(g, r0, c0, nr, nc, RowMajor, nil)
		crs, err := DecodeEDToCRS(rowBuf, nr, nc, c0, nil)
		if err != nil {
			return false
		}
		colBuf := encodeRect(g, r0, c0, nr, nc, ColMajor, nil)
		ccs, err := DecodeEDToCCS(colBuf, nr, nc, r0, nil)
		if err != nil {
			return false
		}
		want := g.SubMatrix(r0, c0, nr, nc)
		return crs.Decompress().Equal(want) && ccs.Decompress().Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEDBufferSizeMatchesPaper(t *testing.T) {
	// The ED wire size per part is (local rows + 2*local nnz) words for
	// the row-major layout — the 2n²s + n total of Table 1.
	g := sparse.Uniform(64, 64, 0.1, 3)
	buf := encodeRect(g, 0, 0, 16, 64, RowMajor, nil)
	nnz := g.SubMatrix(0, 0, 16, 64).NNZ()
	if want := 16 + 2*nnz; len(buf) != want {
		t.Errorf("buffer size = %d words, want %d", len(buf), want)
	}
}

func TestEncodeEDCostAccounting(t *testing.T) {
	// Encoding charges like compression: one op per scanned element plus
	// three per nonzero (n²(1+3s) over the whole array).
	g := sparse.PaperFigure1()
	var ctr cost.Counter
	encodeRect(g, 0, 0, 10, 8, RowMajor, &ctr)
	want := int64(10*8 + 3*16)
	if ctr.Ops != want {
		t.Errorf("encode ops = %d, want %d", ctr.Ops, want)
	}
}

func TestDecodeEDCostAccounting(t *testing.T) {
	// Decoding charges (rows + 1) pointer ops plus 2 per nnz, plus 1 per
	// nnz when an index conversion is needed.
	g := sparse.PaperFigure1()
	buf := encodeRect(g, 3, 0, 3, 8, RowMajor, nil)
	nnz := 3

	var ctr cost.Counter
	if _, err := DecodeEDToCRS(buf, 3, 8, 0, &ctr); err != nil {
		t.Fatal(err)
	}
	if want := int64(3 + 1 + 2*nnz); ctr.Ops != want {
		t.Errorf("decode ops (no conversion) = %d, want %d", ctr.Ops, want)
	}

	cbuf := encodeRect(g, 3, 0, 3, 8, ColMajor, nil)
	ctr.Reset()
	if _, err := DecodeEDToCCS(cbuf, 3, 8, 3, &ctr); err != nil {
		t.Fatal(err)
	}
	if want := int64(8 + 1 + 3*nnz); ctr.Ops != want {
		t.Errorf("decode ops (with conversion) = %d, want %d", ctr.Ops, want)
	}
}

func TestDecodeEDErrors(t *testing.T) {
	g := sparse.PaperFigure1()
	buf := encodeRect(g, 3, 0, 3, 8, RowMajor, nil)

	if _, err := DecodeEDToCRS(buf[:2], 3, 8, 0, nil); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := DecodeEDToCRS(buf[:len(buf)-1], 3, 8, 0, nil); err == nil {
		t.Error("truncated pair region accepted")
	}

	bad := append([]float64(nil), buf...)
	bad[0] = 1.5 // non-integer count
	if _, err := DecodeEDToCRS(bad, 3, 8, 0, nil); err == nil {
		t.Error("non-integer count accepted")
	}

	bad = append([]float64(nil), buf...)
	bad[0] = -1
	if _, err := DecodeEDToCRS(bad, 3, 8, 0, nil); err == nil {
		t.Error("negative count accepted")
	}

	bad = append([]float64(nil), buf...)
	bad[3] = 100 // column index out of range after decode validation
	if _, err := DecodeEDToCRS(bad, 3, 8, 0, nil); err == nil {
		t.Error("out-of-range decoded index accepted")
	}

	// Wrong offset pushes indices out of range; Validate must catch it.
	cbuf := encodeRect(g, 3, 0, 3, 8, ColMajor, nil)
	if _, err := DecodeEDToCCS(cbuf, 3, 8, 100, nil); err == nil {
		t.Error("absurd offset accepted")
	}
}

// TestEncodeEDRectPanicsOutOfRange: a part reaching past the array is a
// programming error, caught before the scan reads a cell of the next
// row.
func TestEncodeEDRectPanicsOutOfRange(t *testing.T) {
	for _, c := range []struct{ rowMap, colMap []int }{
		{[]int{2, 3, 4}, []int{2, 3}},
		{[]int{0}, []int{3, 4}},
		{[]int{-1, 0}, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncodeED(%v x %v) on a 4x4 array did not panic", c.rowMap, c.colMap)
				}
			}()
			EncodeED(sparse.NewDense(4, 4), c.rowMap, c.colMap, RowMajor, nil, nil)
		}()
	}
}

func TestMajorString(t *testing.T) {
	if RowMajor.String() != "row" || ColMajor.String() != "col" {
		t.Errorf("Major.String: got %q, %q", RowMajor, ColMajor)
	}
}

func TestAppendEDRowsRoundTrip(t *testing.T) {
	// Figure 1's array as CRS: rows 3-5 encode to the same buffer
	// EncodeED builds from the dense array (Figure 6), and any row
	// range or list decodes back to those rows.
	g := sparse.PaperFigure1()
	m := CompressCRS(g, nil)
	got := m.AppendEDRows(nil, 3, 6)
	want := encodeRect(g, 3, 0, 3, 8, RowMajor, nil)
	if len(got) != len(want) {
		t.Fatalf("buffer %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buffer %v, want %v", got, want)
		}
	}
	prefix := []float64{42}
	if buf := m.AppendEDRows(prefix, 0, 0); len(buf) != 1 || buf[0] != 42 {
		t.Fatalf("empty range appended %v", buf)
	}

	// A list names rows of a block by global id: rows 13, 10, 15 of a
	// numbering that starts at 10 are rows 3, 0, 5 of m.
	rows := []int{13, 10, 15}
	dec, err := DecodeEDToCRS(m.AppendEDRowList(nil, rows, 10), len(rows), m.Cols, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		for j := 0; j < m.Cols; j++ {
			if dec.At(i, j) != m.At(r-10, j) {
				t.Fatalf("listed row %d col %d = %g, want %g", r, j, dec.At(i, j), m.At(r-10, j))
			}
		}
	}
}
