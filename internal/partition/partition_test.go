package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestRowPartitionFigure2(t *testing.T) {
	// Figure 2: the 10x8 array of Figure 1 split into 4 row blocks of
	// ceil(10/4) = 3 rows; P3 gets the single remaining row.
	p, err := NewRow(10, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	wantRows := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9}}
	for k, want := range wantRows {
		got := p.RowMap(k)
		if len(got) != len(want) {
			t.Fatalf("part %d owns %d rows, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("part %d row %d = %d, want %d", k, i, got[i], want[i])
			}
		}
		if len(p.ColMap(k)) != 8 {
			t.Errorf("part %d owns %d cols, want all 8", k, len(p.ColMap(k)))
		}
	}
}

func TestRowPartitionLocalNNZFigure3(t *testing.T) {
	// Figure 3: local arrays received per processor have 4, 3, 6, 3
	// nonzeros respectively.
	g := sparse.PaperFigure1()
	p, _ := NewRow(10, 8, 4)
	locals := ExtractAll(g, p)
	want := []int{4, 3, 6, 3}
	for k, w := range want {
		if got := locals[k].NNZ(); got != w {
			t.Errorf("P%d local NNZ = %d, want %d", k, got, w)
		}
	}
}

func TestColPartition(t *testing.T) {
	p, err := NewCol(10, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if nr, nc := len(p.RowMap(k)), len(p.ColMap(k)); nr != 10 || nc != 2 {
			t.Errorf("part %d shape %dx%d, want 10x2", k, nr, nc)
		}
		if !Contiguous(p.ColMap(k)) {
			t.Errorf("part %d col map not contiguous", k)
		}
	}
	if p.ColMap(1)[0] != 2 {
		t.Errorf("part 1 first column = %d, want 2", p.ColMap(1)[0])
	}
}

func TestMeshPartition(t *testing.T) {
	p, err := NewMesh(10, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 4 {
		t.Fatalf("NumParts = %d, want 4", p.NumParts())
	}
	// Part 3 = P_{1,1}: rows 5-9, cols 4-7.
	if rm := p.RowMap(3); rm[0] != 5 || len(rm) != 5 {
		t.Errorf("part 3 rows start %d len %d, want 5, 5", rm[0], len(rm))
	}
	if cm := p.ColMap(3); cm[0] != 4 || len(cm) != 4 {
		t.Errorf("part 3 cols start %d len %d, want 4, 4", cm[0], len(cm))
	}
	if pr, pc := p.Grid(); pr != 2 || pc != 2 {
		t.Errorf("Grid = %dx%d, want 2x2", pr, pc)
	}
}

func TestMeshNameAndRowName(t *testing.T) {
	m, _ := NewMesh(4, 4, 2, 3)
	if m.Name() != "mesh2x3" {
		t.Errorf("mesh name = %q", m.Name())
	}
	r, _ := NewRow(4, 4, 2)
	if r.Name() != "row" {
		t.Errorf("row name = %q", r.Name())
	}
}

func TestCyclicRowPartition(t *testing.T) {
	p, err := NewCyclicRow(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 7}
	got := p.RowMap(1)
	if len(got) != 3 {
		t.Fatalf("part 1 owns %d rows, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("part 1 row %d = %d, want %d", i, got[i], want[i])
		}
	}
	if Contiguous(got) {
		t.Error("cyclic row map reported contiguous")
	}
}

func TestCyclicColPartition(t *testing.T) {
	p, err := NewCyclicCol(4, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	if got := p.ColMap(2); got[0] != 2 || got[1] != 6 {
		t.Errorf("part 2 cols = %v, want [2 6]", got)
	}
}

func TestBlockCyclicRowPartition(t *testing.T) {
	p, err := NewBlockCyclicRow(12, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	// Blocks of 3 rows dealt to 2 parts: part 0 gets rows 0-2 and 6-8.
	want := []int{0, 1, 2, 6, 7, 8}
	got := p.RowMap(0)
	if len(got) != len(want) {
		t.Fatalf("part 0 owns %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("part 0 row %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestValidateAllMethodsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rows := int(seed%17) + 1
		cols := int(seed%13) + 1
		p := int(seed%5) + 1
		parts := []Partition{}
		if r, err := NewRow(rows, cols, p); err == nil {
			parts = append(parts, r)
		}
		if c, err := NewCol(rows, cols, p); err == nil {
			parts = append(parts, c)
		}
		if m, err := NewMesh(rows, cols, p, 2); err == nil {
			parts = append(parts, m)
		}
		if cr, err := NewCyclicRow(rows, cols, p); err == nil {
			parts = append(parts, cr)
		}
		if cc, err := NewCyclicCol(rows, cols, p); err == nil {
			parts = append(parts, cc)
		}
		if b, err := NewBlockCyclicRow(rows, cols, p, 2); err == nil {
			parts = append(parts, b)
		}
		for _, pt := range parts {
			if Validate(pt) != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestExtractMatchesSubMatrix(t *testing.T) {
	g := sparse.PaperFigure1()
	p, _ := NewMesh(10, 8, 2, 2)
	got := Extract(g, p, 3)
	want := g.SubMatrix(5, 4, 5, 4)
	if !got.Equal(want) {
		t.Error("Extract of mesh part 3 disagrees with SubMatrix")
	}
}

func TestExtractCyclicReassembly(t *testing.T) {
	// Extract all cyclic parts and scatter them back; must reproduce g.
	g := sparse.Uniform(11, 7, 0.4, 2)
	p, _ := NewCyclicRow(11, 7, 3)
	locals := ExtractAll(g, p)
	re := sparse.NewDense(11, 7)
	for k, l := range locals {
		for li, gi := range p.RowMap(k) {
			for lj, gj := range p.ColMap(k) {
				re.Set(gi, gj, l.At(li, lj))
			}
		}
	}
	if !re.Equal(g) {
		t.Error("cyclic extract/reassemble lost data")
	}
}

func TestPartCountExceedingDims(t *testing.T) {
	// More parts than rows: trailing parts own nothing, coverage holds.
	p, err := NewRow(3, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	empty := 0
	for k := 0; k < 8; k++ {
		if len(p.RowMap(k)) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Error("expected some empty parts with p > rows")
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewRow(-1, 4, 2); err == nil {
		t.Error("negative rows accepted")
	}
	if _, err := NewRow(4, 4, 0); err == nil {
		t.Error("zero parts accepted")
	}
	if _, err := NewMesh(4, 4, 0, 2); err == nil {
		t.Error("zero mesh dim accepted")
	}
	if _, err := NewBlockCyclicRow(4, 4, 2, 0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewCyclicRow(4, 4, -1); err == nil {
		t.Error("negative parts accepted")
	}
	if _, err := NewCyclicCol(4, 4, 0); err == nil {
		t.Error("zero parts accepted")
	}
	if _, err := NewCol(2, -2, 1); err == nil {
		t.Error("negative cols accepted")
	}
}

func TestPartOutOfRangePanics(t *testing.T) {
	p, _ := NewRow(4, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("RowMap(5) did not panic")
		}
	}()
	p.RowMap(5)
}

func TestContiguous(t *testing.T) {
	if !Contiguous([]int{3, 4, 5}) {
		t.Error("contiguous range reported non-contiguous")
	}
	if Contiguous([]int{1, 3}) {
		t.Error("gap reported contiguous")
	}
	if !Contiguous(nil) || !Contiguous([]int{7}) {
		t.Error("empty/singleton must be contiguous")
	}
}

func TestLocalStatsSPrime(t *testing.T) {
	// s' (largest local ratio) >= s (global ratio) for any partition.
	g := sparse.Uniform(40, 40, 0.1, 9)
	p, _ := NewRow(40, 40, 4)
	st := sparse.LocalStats(ExtractAll(g, p))
	if st.MaxRatio < st.GlobalRatio {
		t.Errorf("s' = %g < s = %g", st.MaxRatio, st.GlobalRatio)
	}
	if st.GlobalNNZ != g.NNZ() {
		t.Errorf("partition changed total NNZ: %d vs %d", st.GlobalNNZ, g.NNZ())
	}
}
