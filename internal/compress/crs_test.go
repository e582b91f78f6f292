package compress

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// figureP0 returns rows 0-2 of the paper's Figure 1 array: the local
// sparse array of P0 under the row partition method (Figure 3).
func figureP0(t *testing.T) *sparse.Dense {
	t.Helper()
	return sparse.PaperFigure1().SubMatrix(0, 0, 3, 8)
}

func TestCompressCRSFigure4P0(t *testing.T) {
	// Figure 4 gives the CRS of P0's local array as RO = [1 2 3 5]
	// (1-based). With our 0-based convention RowPtr = [0 1 2 4].
	m := CompressCRS(figureP0(t), nil)
	wantPtr := []int{0, 1, 2, 4}
	for i, w := range wantPtr {
		if m.RowPtr[i] != w {
			t.Errorf("RowPtr[%d] = %d, want %d", i, m.RowPtr[i], w)
		}
	}
	wantCol := []int{1, 6, 0, 7} // paper CO (1-based): 2 7 1 8
	wantVal := []float64{1, 2, 3, 4}
	for k := range wantCol {
		if m.ColIdx[k] != wantCol[k] || m.Val[k] != wantVal[k] {
			t.Errorf("entry %d = (%d, %g), want (%d, %g)", k, m.ColIdx[k], m.Val[k], wantCol[k], wantVal[k])
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressCRSRoundTrip(t *testing.T) {
	d := sparse.PaperFigure1()
	m := CompressCRS(d, nil)
	if !m.Decompress().Equal(d) {
		t.Error("CRS round trip changed the array")
	}
	if m.NNZ() != 16 {
		t.Errorf("NNZ = %d, want 16", m.NNZ())
	}
}

func TestCompressCRSRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := sparse.Uniform(17, 11, 0.3, seed)
		m := CompressCRS(d, nil)
		return m.Validate() == nil && m.Decompress().Equal(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompressCRSCostAccounting(t *testing.T) {
	// The paper charges rows*cols*(1 + 3s) operations: one per scanned
	// element, three per nonzero.
	d := sparse.PaperFigure1() // 10x8, 16 nnz
	var ctr cost.Counter
	CompressCRS(d, &ctr)
	want := int64(10*8 + 3*16)
	if ctr.Ops != want {
		t.Errorf("compress ops = %d, want %d", ctr.Ops, want)
	}
	if ctr.Messages != 0 || ctr.Elements != 0 {
		t.Error("compression charged communication costs")
	}
}

func TestCompressCRSFromCOO(t *testing.T) {
	d := sparse.PaperFigure1()
	direct := CompressCRS(d, nil)
	viaCOO, err := CompressCRSFromCOO(sparse.FromDense(d))
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(viaCOO) {
		t.Error("CRS from dense and from COO disagree")
	}
}

func TestCompressCRSFromCOORejectsDuplicates(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2)
	if _, err := CompressCRSFromCOO(c); err == nil {
		t.Error("duplicate entries accepted")
	}
}

func TestCRSAt(t *testing.T) {
	d := sparse.PaperFigure1()
	m := CompressCRS(d, nil)
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if got, want := m.At(i, j), d.At(i, j); got != want {
				t.Fatalf("At(%d, %d) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestCRSAtPanics(t *testing.T) {
	m := CompressCRS(sparse.NewDense(2, 2), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestCRSRowNNZ(t *testing.T) {
	m := CompressCRS(sparse.PaperFigure1(), nil)
	want := []int{1, 1, 2, 1, 1, 1, 1, 2, 3, 3}
	for i, w := range want {
		if got := m.RowNNZ(i); got != w {
			t.Errorf("RowNNZ(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestCRSValidateCatchesCorruption(t *testing.T) {
	fresh := func() *CRS { return CompressCRS(sparse.PaperFigure1(), nil) }

	m := fresh()
	m.RowPtr[0] = 1
	if m.Validate() == nil {
		t.Error("RowPtr[0] != 0 accepted")
	}

	m = fresh()
	m.RowPtr[3] = m.RowPtr[2] - 1
	if m.Validate() == nil {
		t.Error("decreasing RowPtr accepted")
	}

	m = fresh()
	m.ColIdx[0] = 99
	if m.Validate() == nil {
		t.Error("out-of-range column accepted")
	}

	m = fresh()
	m.Val[0] = 0
	if m.Validate() == nil {
		t.Error("explicit zero accepted")
	}

	m = fresh()
	m.RowPtr = m.RowPtr[:3]
	if m.Validate() == nil {
		t.Error("short RowPtr accepted")
	}

	m = fresh()
	// Swap two entries within row 2 to break ascending column order.
	m.ColIdx[2], m.ColIdx[3] = m.ColIdx[3], m.ColIdx[2]
	if m.Validate() == nil {
		t.Error("non-ascending columns accepted")
	}
}

func TestCRSShiftCols(t *testing.T) {
	// Case 3.2.3 example: a mesh piece whose stored columns are global.
	d := sparse.PaperFigure1()
	piece := d.SubMatrix(0, 4, 5, 4) // rows 0-4, cols 4-7
	m := CompressCRS(piece, nil)
	// Rebuild with global indices, as CFS compression at the root does.
	global := m.Clone()
	for k := range global.ColIdx {
		global.ColIdx[k] += 4
	}
	var ctr cost.Counter
	global.ShiftCols(4, &ctr)
	if !global.Equal(m) {
		t.Error("ShiftCols did not recover local indices")
	}
	if ctr.Ops != int64(m.NNZ()) {
		t.Errorf("ShiftCols ops = %d, want %d (one per index)", ctr.Ops, m.NNZ())
	}
	// Delta 0 must be free (Case 3.2.1).
	ctr.Reset()
	global.ShiftCols(0, &ctr)
	if ctr.Ops != 0 {
		t.Errorf("ShiftCols(0) charged %d ops, want 0", ctr.Ops)
	}
}

func TestCRSCloneIndependent(t *testing.T) {
	m := CompressCRS(sparse.PaperFigure1(), nil)
	c := m.Clone()
	c.Val[0] = 99
	c.ColIdx[0] = 3
	c.RowPtr[1] = 0
	if m.Val[0] == 99 || m.ColIdx[0] == 3 {
		t.Error("Clone shares storage")
	}
}

func TestCRSEmptyArray(t *testing.T) {
	m := CompressCRS(sparse.NewDense(0, 0), nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0", m.NNZ())
	}
	if !m.Decompress().Equal(sparse.NewDense(0, 0)) {
		t.Error("empty round trip failed")
	}
}

func TestCRSAllZeroRows(t *testing.T) {
	d := sparse.NewDense(4, 4)
	d.Set(3, 3, 1)
	m := CompressCRS(d, nil)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 1}
	for i, w := range want {
		if m.RowPtr[i] != w {
			t.Errorf("RowPtr[%d] = %d, want %d", i, m.RowPtr[i], w)
		}
	}
}

// crsReference is the CRS of d built without CompressCRS: its nonzeros
// (v != 0, so -0 is a zero and NaN is kept) through CompressCRSFromCOO.
func crsReference(t *testing.T, d *sparse.Dense) *CRS {
	t.Helper()
	c := sparse.NewCOO(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		for j, v := range d.Row(i) {
			if v != 0 {
				c.Entries = append(c.Entries, sparse.Entry{Row: i, Col: j, Val: v})
			}
		}
	}
	m, err := CompressCRSFromCOO(c)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameCRS reports whether two CRS arrays hold the same shape, pointers,
// indices and value bits (so a NaN equals itself).
func sameCRS(a, b *CRS) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
		slices.Equal(a.ColIdx, b.ColIdx) && slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestCompressCRSExactSize checks that CompressCRS allocates its index
// and value arrays at their size and builds what CompressCRSFromCOO
// builds, across densities, degenerate shapes, all-zero rows, a -0
// cell (a zero, as v != 0 treats it) and a NaN cell (kept).
func TestCompressCRSExactSize(t *testing.T) {
	cases := map[string]*sparse.Dense{
		"0x0":  sparse.NewDense(0, 0),
		"0x5":  sparse.NewDense(0, 5),
		"5x0":  sparse.NewDense(5, 0),
		"zero": sparse.NewDense(6, 7),
	}
	for _, s := range []float64{0, 0.001, 0.1, 0.5, 1} {
		cases[fmt.Sprintf("s=%g", s)] = sparse.UniformExact(40, 50, s, 11)
	}
	rows := sparse.UniformExact(9, 8, 0.5, 3)
	for _, i := range []int{0, 4, 8} { // all-zero first, middle and last rows
		clear(rows.Row(i))
	}
	cases["zero-rows"] = rows
	special := sparse.UniformExact(5, 6, 0.3, 5)
	special.Set(1, 2, math.Copysign(0, -1))
	special.Set(3, 4, math.NaN())
	cases["-0-and-NaN"] = special
	for name, d := range cases {
		t.Run(name, func(t *testing.T) {
			m := CompressCRS(d, nil)
			if cap(m.ColIdx) != len(m.ColIdx) || cap(m.Val) != len(m.Val) {
				t.Errorf("ColIdx len %d cap %d, Val len %d cap %d: want cap == len",
					len(m.ColIdx), cap(m.ColIdx), len(m.Val), cap(m.Val))
			}
			if want := crsReference(t, d); !sameCRS(m, want) {
				t.Errorf("CompressCRS = %+v, want %+v", m, want)
			}
		})
	}
	if m := CompressCRS(special, nil); !math.IsNaN(m.At(3, 4)) || m.NNZ() != special.NNZ() {
		t.Errorf("NaN cell read %g with %d stored, want NaN and %d (the -0 not stored)", m.At(3, 4), m.NNZ(), special.NNZ())
	}
}

// TestCompressCRSResultsOutliveScratch compresses A, then a larger B,
// then A again from 8 goroutines at once, and checks every result
// against its reference afterwards: a result that aliased the pooled
// scratch would be overwritten by a later compress.
func TestCompressCRSResultsOutliveScratch(t *testing.T) {
	a, b := sparse.UniformExact(30, 40, 0.2, 1), sparse.UniformExact(60, 80, 0.3, 2)
	refA, refB := crsReference(t, a), crsReference(t, b)
	first := CompressCRS(a, nil)
	second := CompressCRS(b, nil)
	again := make([]*CRS, 8)
	var wg sync.WaitGroup
	for k := range again {
		wg.Add(1)
		go func() {
			defer wg.Done()
			again[k] = CompressCRS(a, nil)
		}()
	}
	wg.Wait()
	if !sameCRS(first, refA) {
		t.Error("the first compress of A changed after later compresses")
	}
	if !sameCRS(second, refB) {
		t.Error("the compress of B changed after later compresses")
	}
	for k, m := range again {
		if !sameCRS(m, refA) {
			t.Errorf("concurrent compress %d of A differs from its reference", k)
		}
	}
}

// TestCompressCRSSteadyStateAllocs pins what a warm CompressCRS
// allocates: the CRS header and its three arrays, none grown by append.
func TestCompressCRSSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	d := sparse.UniformExact(100, 400, 0.1, 4)
	CompressCRS(d, nil) // grow the scratch
	if avg := testing.AllocsPerRun(100, func() { CompressCRS(d, nil) }); avg > 4 {
		t.Errorf("CompressCRS allocates %.1f times per call, want <= 4", avg)
	}
}
