package compress

import (
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/sparse"
)

func TestPackUnpackJDSRoundTrip(t *testing.T) {
	m := CompressJDS(sparse.PaperFigure1(), nil)
	var ctr cost.Counter
	buf := PackJDS(m, &ctr)
	got, err := UnpackJDS(buf, m.Rows, m.Cols, m.MaxRowNNZ(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Error("JDS pack/unpack round trip changed the array")
	}
	wantWords := int64(len(m.Perm) + len(m.JDPtr) + 2*m.NNZ())
	if ctr.Ops != wantWords {
		t.Errorf("pack ops = %d, want %d", ctr.Ops, wantWords)
	}
}

func TestPackUnpackJDSProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := sparse.Uniform(10, 13, 0.3, seed)
		m := CompressJDS(d, nil)
		got, err := UnpackJDS(PackJDS(m, nil), m.Rows, m.Cols, m.MaxRowNNZ(), nil)
		return err == nil && got.Equal(m) && got.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnpackJDSErrors(t *testing.T) {
	m := CompressJDS(sparse.PaperFigure1(), nil)
	buf := PackJDS(m, nil)
	if _, err := UnpackJDS(buf[:3], m.Rows, m.Cols, m.MaxRowNNZ(), nil); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := UnpackJDS(buf, -1, m.Cols, 1, nil); err == nil {
		t.Error("negative rows accepted")
	}
	if _, err := UnpackJDS(buf[:len(buf)-1], m.Rows, m.Cols, m.MaxRowNNZ(), nil); err == nil {
		t.Error("truncated buffer accepted")
	}
	bad := append([]float64(nil), buf...)
	bad[0] = 0.5
	if _, err := UnpackJDS(bad, m.Rows, m.Cols, m.MaxRowNNZ(), nil); err == nil {
		t.Error("non-integer perm accepted")
	}
	// Wrong diagonal count shifts all regions.
	if _, err := UnpackJDS(buf, m.Rows, m.Cols, m.MaxRowNNZ()+1, nil); err == nil {
		t.Error("wrong diagonal count accepted")
	}
}

func TestJDSShiftAndConvert(t *testing.T) {
	local := CompressJDS(sparse.PaperFigure1().SubMatrix(0, 4, 10, 4), nil)
	f := JDSFormat
	global := f.CompressPart(sparse.PaperFigure1(), rangeIntsTest(0, 10), rangeIntsTest(4, 8), nil).(*JDS)
	var ctr cost.Counter
	global.ShiftCols(4, &ctr)
	if !global.Equal(local) {
		t.Error("ShiftCols did not localise the JDS")
	}
	if ctr.Ops != int64(local.NNZ()) {
		t.Errorf("shift ops = %d, want %d", ctr.Ops, local.NNZ())
	}

	// Map conversion on a strided ownership.
	g := sparse.NewDense(2, 6)
	g.Set(0, 1, 1)
	g.Set(1, 5, 2)
	colMap := []int{1, 3, 5}
	jds := f.CompressPart(g, []int{0, 1}, colMap, nil).(*JDS)
	if err := jds.ConvertColsToLocal(colMap, nil); err != nil {
		t.Fatal(err)
	}
	if err := jds.Validate(); err != nil {
		t.Fatal(err)
	}
	if jds.ColIdx[0] != 0 || jds.ColIdx[1] != 2 {
		t.Errorf("converted ColIdx = %v", jds.ColIdx)
	}
	if err := jds.ConvertColsToLocal([]int{99}, nil); err == nil {
		t.Error("foreign map accepted")
	}
}

func TestCompressJDSPartGlobalMatchesDirect(t *testing.T) {
	g := sparse.PaperFigure1()
	f := JDSFormat
	var ctr cost.Counter
	got := f.CompressPart(g, rangeIntsTest(0, 3), rangeIntsTest(0, 8), &ctr).(*JDS)
	got.ShiftCols(0, nil) // row partition: already local
	want := CompressJDS(g.SubMatrix(0, 0, 3, 8), nil)
	if !got.Equal(want) {
		t.Error("part-global JDS differs from direct compression")
	}
	// scan + 3/nnz + rows (perm): 3*8 + 3*4 + 3.
	if wantOps := int64(24 + 12 + 3); ctr.Ops != wantOps {
		t.Errorf("ops = %d, want %d", ctr.Ops, wantOps)
	}
}

func rangeIntsTest(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
