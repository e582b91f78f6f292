package compress

import (
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/sparse"
)

func TestCompressCCSFigure5P1(t *testing.T) {
	// Figure 5: CCS of P1's local array (rows 3-5 of Figure 1) with
	// *local* row indices after the Case 3.2.2 conversion. Nonzeros:
	// (row 3, col 5, 5), (row 4, col 3, 6), (row 5, col 4, 7).
	piece := sparse.PaperFigure1().SubMatrix(3, 0, 3, 8)
	m := CompressCCS(piece, nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Columns 0-2 empty, col 3 -> 6, col 4 -> 7, col 5 -> 5, cols 6-7 empty.
	wantPtr := []int{0, 0, 0, 0, 1, 2, 3, 3, 3}
	for j, w := range wantPtr {
		if m.ColPtr[j] != w {
			t.Errorf("ColPtr[%d] = %d, want %d", j, m.ColPtr[j], w)
		}
	}
	wantRow := []int{1, 2, 0} // local rows of values 6, 7, 5
	wantVal := []float64{6, 7, 5}
	for k := range wantRow {
		if m.RowIdx[k] != wantRow[k] || m.Val[k] != wantVal[k] {
			t.Errorf("entry %d = (%d, %g), want (%d, %g)", k, m.RowIdx[k], m.Val[k], wantRow[k], wantVal[k])
		}
	}
}

func TestCompressCCSRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := sparse.Uniform(13, 19, 0.3, seed)
		m := CompressCCS(d, nil)
		return m.Validate() == nil && m.Decompress().Equal(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompressCCSCostAccounting(t *testing.T) {
	d := sparse.PaperFigure1()
	var ctr cost.Counter
	CompressCCS(d, &ctr)
	want := int64(10*8 + 3*16)
	if ctr.Ops != want {
		t.Errorf("compress ops = %d, want %d", ctr.Ops, want)
	}
}

func TestCompressCCSFromCOO(t *testing.T) {
	d := sparse.PaperFigure1()
	direct := CompressCCS(d, nil)
	viaCOO, err := CompressCCSFromCOO(sparse.FromDense(d))
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(viaCOO) {
		t.Error("CCS from dense and from COO disagree")
	}
}

func TestCompressCCSFromCOORejectsDuplicates(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(1, 1, 1)
	c.Add(1, 1, 2)
	if _, err := CompressCCSFromCOO(c); err == nil {
		t.Error("duplicate entries accepted")
	}
}

func TestCCSAt(t *testing.T) {
	d := sparse.PaperFigure1()
	m := CompressCCS(d, nil)
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if got, want := m.At(i, j), d.At(i, j); got != want {
				t.Fatalf("At(%d, %d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestCCSValidateCatchesCorruption(t *testing.T) {
	fresh := func() *CCS { return CompressCCS(sparse.PaperFigure1(), nil) }

	m := fresh()
	m.ColPtr[0] = 1
	if m.Validate() == nil {
		t.Error("ColPtr[0] != 0 accepted")
	}

	m = fresh()
	m.RowIdx[0] = -1
	if m.Validate() == nil {
		t.Error("negative row index accepted")
	}

	m = fresh()
	m.Val[0] = 0
	if m.Validate() == nil {
		t.Error("explicit zero accepted")
	}

	m = fresh()
	m.ColPtr[2] = m.ColPtr[1] - 1
	if m.Validate() == nil {
		t.Error("decreasing ColPtr accepted")
	}
}

func TestCCSShiftRows(t *testing.T) {
	// Case 3.2.2: row partition + CCS. P1 owns rows 3-5; the root
	// compresses with global row indices and P1 subtracts N = 3.
	piece := sparse.PaperFigure1().SubMatrix(3, 0, 3, 8)
	local := CompressCCS(piece, nil)
	global := local.Clone()
	for k := range global.RowIdx {
		global.RowIdx[k] += 3
	}
	var ctr cost.Counter
	global.ShiftRows(3, &ctr)
	if !global.Equal(local) {
		t.Error("ShiftRows did not recover local indices")
	}
	if ctr.Ops != int64(local.NNZ()) {
		t.Errorf("ShiftRows ops = %d, want %d", ctr.Ops, local.NNZ())
	}
}

func TestCCSEmptyAndZeroColumns(t *testing.T) {
	m := CompressCCS(sparse.NewDense(0, 0), nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	d := sparse.NewDense(3, 4)
	d.Set(0, 3, 2)
	m = CompressCCS(d, nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.Decompress().Equal(d) {
		t.Error("round trip with empty columns failed")
	}
}

func TestConvertCRSCCSRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		d := sparse.Uniform(9, 14, 0.35, seed)
		crs := CompressCRS(d, nil)
		ccs := CRSToCCS(crs)
		if ccs.Validate() != nil || !ccs.Equal(CompressCCS(d, nil)) {
			return false
		}
		back := CCSToCRS(ccs)
		return back.Validate() == nil && back.Equal(crs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
