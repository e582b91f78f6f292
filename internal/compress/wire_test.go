package compress

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/sparse"
)

func TestPackUnpackCRSRoundTrip(t *testing.T) {
	m := CompressCRS(sparse.PaperFigure1(), nil)
	var packCtr, unpackCtr cost.Counter
	buf := PackCRS(m, &packCtr)
	got, err := UnpackCRS(buf, m.Rows, m.Cols, &unpackCtr)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Error("CRS pack/unpack round trip changed the array")
	}
	// Both sides charge one op per word: RowPtr (rows+1) + 2*nnz.
	wantWords := int64(11 + 2*16)
	if packCtr.Ops != wantWords || unpackCtr.Ops != wantWords {
		t.Errorf("pack/unpack ops = %d/%d, want %d each", packCtr.Ops, unpackCtr.Ops, wantWords)
	}
}

func TestPackUnpackCCSRoundTrip(t *testing.T) {
	m := CompressCCS(sparse.PaperFigure1(), nil)
	buf := PackCCS(m, nil)
	got, err := UnpackCCS(buf, m.Rows, m.Cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Error("CCS pack/unpack round trip changed the array")
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := sparse.Uniform(15, 8, 0.25, seed)
		crs := CompressCRS(d, nil)
		gotR, err := UnpackCRS(PackCRS(crs, nil), crs.Rows, crs.Cols, nil)
		if err != nil || !gotR.Equal(crs) {
			return false
		}
		ccs := CompressCCS(d, nil)
		gotC, err := UnpackCCS(PackCCS(ccs, nil), ccs.Rows, ccs.Cols, nil)
		return err == nil && gotC.Equal(ccs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackCRSPreservesGlobalIndices(t *testing.T) {
	// CFS sends global CO values; pack/unpack must not normalise them.
	m := CompressCRS(sparse.PaperFigure1().SubMatrix(0, 4, 10, 4), nil)
	for k := range m.ColIdx {
		m.ColIdx[k] += 4 // make global
	}
	got, err := UnpackCRS(PackCRS(m, nil), m.Rows, m.Cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range got.ColIdx {
		if got.ColIdx[k] != m.ColIdx[k] {
			t.Fatalf("ColIdx[%d] = %d, want %d", k, got.ColIdx[k], m.ColIdx[k])
		}
	}
	// Validation would fail now (indices out of local range) — that is
	// expected before ShiftCols; after shifting it must pass.
	got.ShiftCols(4, nil)
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackCRSErrors(t *testing.T) {
	m := CompressCRS(sparse.PaperFigure1(), nil)
	buf := PackCRS(m, nil)

	if _, err := UnpackCRS(buf[:5], m.Rows, m.Cols, nil); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := UnpackCRS(buf, -1, 8, nil); err == nil {
		t.Error("negative shape accepted")
	}
	if _, err := UnpackCRS(buf[:len(buf)-1], m.Rows, m.Cols, nil); err == nil {
		t.Error("truncated buffer accepted")
	}
	bad := append([]float64(nil), buf...)
	bad[0] = 0.5
	if _, err := UnpackCRS(bad, m.Rows, m.Cols, nil); err == nil {
		t.Error("non-integer pointer accepted")
	}
	bad = append([]float64(nil), buf...)
	bad[11] = math.NaN() // first ColIdx word
	if _, err := UnpackCRS(bad, m.Rows, m.Cols, nil); err == nil {
		t.Error("NaN index accepted")
	}
}

func TestUnpackCCSErrors(t *testing.T) {
	m := CompressCCS(sparse.PaperFigure1(), nil)
	buf := PackCCS(m, nil)

	if _, err := UnpackCCS(buf[:3], m.Rows, m.Cols, nil); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := UnpackCCS(buf[:len(buf)-2], m.Rows, m.Cols, nil); err == nil {
		t.Error("truncated buffer accepted")
	}
	bad := append([]float64(nil), buf...)
	bad[0] = -3
	if _, err := UnpackCCS(bad, m.Rows, m.Cols, nil); err == nil {
		t.Error("negative pointer accepted")
	}
}

func TestPackedSizeMatchesPaperCFS(t *testing.T) {
	// CFS wire size per part: (rows+1) + 2*nnz words for CRS — summed
	// over parts this is the paper's 2n²s + n + p term.
	d := sparse.Uniform(40, 40, 0.1, 11)
	m := CompressCRS(d, nil)
	buf := PackCRS(m, nil)
	if want := 41 + 2*m.NNZ(); len(buf) != want {
		t.Errorf("packed size = %d, want %d", len(buf), want)
	}
}
