package dist

// End-to-end reproductions of the paper's worked examples (Figures 1-7):
// the 10x8 sparse array A with 16 nonzeros, four processors, row
// partition. Expected values are stated in the paper's 1-based
// convention; this package is 0-based, so pointer arrays differ by the
// documented +1 shift and index arrays by 1.

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/sparse"
)

func figureSetup(t *testing.T) (*sparse.Dense, partition.Partition) {
	t.Helper()
	g := sparse.PaperFigure1()
	part, err := partition.NewRow(10, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return g, part
}

// wantCRS is a golden CRS in the paper's 1-based convention.
type wantCRS struct {
	ro []int // paper RO (1-based)
	co []int // paper CO (1-based)
	vl []float64
}

func TestFigures1to4SFCWithCRS(t *testing.T) {
	// Figure 4: the compressed results at each processor after the SFC
	// scheme with the row partition and CRS. Golden values computed from
	// the Figure 1 array per the CRS definition (the paper's printed
	// figure is partially garbled in the source text; the RO rows it
	// shows for P0 and P1 — [1 2 3 5] and [1 2 3 4] — match these).
	g, part := figureSetup(t)
	m := newMachine(t, 4)
	res, err := Run(m, Plan{Codec: SFC{}, Global: g, Partition: part, Options: Options{Method: CRS}})
	if err != nil {
		t.Fatal(err)
	}
	want := []wantCRS{
		{ro: []int{1, 2, 3, 5}, co: []int{2, 7, 1, 8}, vl: []float64{1, 2, 3, 4}},
		{ro: []int{1, 2, 3, 4}, co: []int{6, 4, 5}, vl: []float64{5, 6, 7}},
		{ro: []int{1, 2, 4, 7}, co: []int{7, 5, 8, 2, 3, 5}, vl: []float64{8, 9, 10, 11, 12, 13}},
		{ro: []int{1, 4}, co: []int{1, 4, 7}, vl: []float64{14, 15, 16}},
	}
	for k, w := range want {
		got := res.LocalCRS[k]
		if len(got.RowPtr) != len(w.ro) {
			t.Fatalf("P%d RowPtr len %d, want %d", k, len(got.RowPtr), len(w.ro))
		}
		for i := range w.ro {
			if got.RowPtr[i]+1 != w.ro[i] {
				t.Errorf("P%d RO[%d] = %d, want %d (paper 1-based)", k, i, got.RowPtr[i]+1, w.ro[i])
			}
		}
		if got.NNZ() != len(w.co) {
			t.Fatalf("P%d NNZ = %d, want %d", k, got.NNZ(), len(w.co))
		}
		for i := range w.co {
			if got.ColIdx[i]+1 != w.co[i] {
				t.Errorf("P%d CO[%d] = %d, want %d (paper 1-based)", k, i, got.ColIdx[i]+1, w.co[i])
			}
			if got.Val[i] != w.vl[i] {
				t.Errorf("P%d VL[%d] = %g, want %g", k, i, got.Val[i], w.vl[i])
			}
		}
	}
}

func TestFigure5CFSWithCCS(t *testing.T) {
	// Figure 5: CFS with row partition and CCS. The root compresses with
	// *global* row indices; P1 receives RO/CO/VL for rows 3-5 and
	// converts CO by subtracting 3 (Case 3.2.2). Final local CCS at P1:
	// values 6, 7, 5 in columns 3, 4, 5 at local rows 1, 2, 0.
	g, part := figureSetup(t)
	m := newMachine(t, 4)
	res, err := Run(m, Plan{Codec: CFS{}, Global: g, Partition: part, Options: Options{Method: CCS}})
	if err != nil {
		t.Fatal(err)
	}
	p1 := res.LocalCCS[1]
	wantColPtr := []int{0, 0, 0, 0, 1, 2, 3, 3, 3}
	for j, w := range wantColPtr {
		if p1.ColPtr[j] != w {
			t.Errorf("P1 ColPtr[%d] = %d, want %d", j, p1.ColPtr[j], w)
		}
	}
	wantRows := []int{1, 2, 0}
	wantVals := []float64{6, 7, 5}
	for i := range wantRows {
		if p1.RowIdx[i] != wantRows[i] || p1.Val[i] != wantVals[i] {
			t.Errorf("P1 entry %d = (%d, %g), want (%d, %g)", i, p1.RowIdx[i], p1.Val[i], wantRows[i], wantVals[i])
		}
	}
	if err := Verify(g, part, res); err != nil {
		t.Fatal(err)
	}
}

func TestFigure7EDWithCCS(t *testing.T) {
	// Figure 7: the full ED worked example with the CCS-layout special
	// buffer. After decoding, every processor holds the same local CCS
	// as direct compression; P1's decode subtracts 3 per Case 3.3.2.
	g, part := figureSetup(t)
	m := newMachine(t, 4)
	res, err := Run(m, Plan{Codec: ED{}, Global: g, Partition: part, Options: Options{Method: CCS}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, part, res); err != nil {
		t.Fatal(err)
	}
	// P1's RO (per paper's decode: RO[0]=1, RO[i+1]=RO[i]+R_i over the
	// 8 columns) = [1 1 1 1 2 3 4 4 4] 1-based.
	wantRO := []int{1, 1, 1, 1, 2, 3, 4, 4, 4}
	p1 := res.LocalCCS[1]
	for j, w := range wantRO {
		if p1.ColPtr[j]+1 != w {
			t.Errorf("P1 decoded RO[%d] = %d, want %d (paper 1-based)", j, p1.ColPtr[j]+1, w)
		}
	}
}

func TestFigureEDvsCFSvsSFCIdenticalResults(t *testing.T) {
	// The three schemes differ only in when/where work happens; on the
	// worked example they must agree bit-for-bit for both methods.
	g, part := figureSetup(t)
	for _, method := range []Method{CRS, CCS} {
		var results []*Result
		for _, s := range Schemes() {
			m := newMachine(t, 4)
			res, err := distribute(s, m, g, part, Options{Method: method})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		for k := 0; k < 4; k++ {
			if method == CRS {
				if !results[0].LocalCRS[k].Equal(results[1].LocalCRS[k]) ||
					!results[1].LocalCRS[k].Equal(results[2].LocalCRS[k]) {
					t.Errorf("CRS results differ across schemes at rank %d", k)
				}
			} else {
				if !results[0].LocalCCS[k].Equal(results[1].LocalCCS[k]) ||
					!results[1].LocalCCS[k].Equal(results[2].LocalCCS[k]) {
					t.Errorf("CCS results differ across schemes at rank %d", k)
				}
			}
		}
	}
}
