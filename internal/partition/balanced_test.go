package partition

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// rowBoundaries reads the p+1 row boundaries of a contiguous row
// partition off its maps: part k owns rows [bounds[k], bounds[k+1]).
func rowBoundaries(p Partition) []int {
	bounds := make([]int, p.NumParts()+1)
	for k := 0; k < p.NumParts(); k++ {
		bounds[k+1] = bounds[k] + len(p.RowMap(k))
	}
	return bounds
}

func TestBalancedRowCoverage(t *testing.T) {
	f := func(seed int64) bool {
		g := sparse.Uniform(23, 11, 0.3, seed)
		for _, p := range []int{1, 2, 4, 7} {
			b, err := NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), p)
			if err != nil || Validate(b) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBalancedRowBeatsUniformOnSkew(t *testing.T) {
	// Heavily skewed array: the first quarter of the rows holds almost
	// all nonzeros. The balanced partition must cut max-part nnz
	// substantially relative to the uniform row partition.
	g := sparse.NewDense(64, 64)
	for i := 0; i < 16; i++ {
		for j := 0; j < 64; j++ {
			g.Set(i, j, 1)
		}
	}
	for i := 16; i < 64; i += 8 {
		g.Set(i, 0, 1) // a sprinkle elsewhere
	}
	uniform, _ := NewRow(64, 64, 4)
	balanced, err := NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), 4)
	if err != nil {
		t.Fatal(err)
	}
	maxPart := func(p Partition) int {
		m := 0
		for k := 0; k < p.NumParts(); k++ {
			m = max(m, Extract(g, p, k).NNZ())
		}
		return m
	}
	bu, bb := maxPart(uniform), maxPart(balanced)
	if bb >= bu {
		t.Errorf("balanced max %d not below uniform max %d", bb, bu)
	}
	if mean := float64(g.NNZ()) / 4; float64(bb)/mean > 2 {
		t.Errorf("balanced imbalance %g still above 2", float64(bb)/mean)
	}
}

func TestBalancedRowContiguity(t *testing.T) {
	g := sparse.Uniform(40, 20, 0.2, 3)
	b, err := NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), 5)
	if err != nil {
		t.Fatal(err)
	}
	bounds := rowBoundaries(b)
	if bounds[0] != 0 || bounds[5] != 40 {
		t.Errorf("boundaries = %v", bounds)
	}
	for k := 0; k < 5; k++ {
		rm := b.RowMap(k)
		if !Contiguous(rm) {
			t.Errorf("part %d rows not contiguous", k)
		}
		if len(rm) > 0 && rm[0] != bounds[k] {
			t.Errorf("part %d starts at %d, want %d", k, rm[0], bounds[k])
		}
		if len(b.ColMap(k)) != 20 {
			t.Errorf("part %d does not span all columns", k)
		}
	}
}

func TestBalancedRowEdgeCases(t *testing.T) {
	g := sparse.Uniform(4, 4, 0.5, 1)
	if _, err := NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), 0); err == nil {
		t.Error("zero parts accepted")
	}
	// More parts than rows: must still cover exactly once.
	b, err := NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(b); err != nil {
		t.Fatal(err)
	}
	// Empty array.
	b, err = NewBalancedRowFromCounts(make([]int, 6), 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(b); err != nil {
		t.Fatal(err)
	}
	if b.Name() != "balanced-row" {
		t.Error("name wrong")
	}
}

func TestBalancedRowFromCountsDegenerate(t *testing.T) {
	cases := []struct {
		name    string
		rowNNZ  []int
		cols, p int
		wantErr error // nil means a valid partition is required
	}{
		{name: "all-zero histogram", rowNNZ: []int{0, 0, 0, 0, 0, 0}, cols: 9, p: 3},
		{name: "all-zero more parts than rows", rowNNZ: []int{0, 0, 0}, cols: 9, p: 7},
		{name: "parts exceed rows", rowNNZ: []int{5, 1, 2}, cols: 4, p: 8},
		{name: "single huge row", rowNNZ: []int{0, 0, 1000, 0}, cols: 1000, p: 4},
		{name: "huge first row", rowNNZ: []int{1 << 20, 0, 0, 0, 0}, cols: 1 << 20, p: 4},
		{name: "empty histogram", rowNNZ: nil, cols: 5, p: 3},
		{name: "one row many parts", rowNNZ: []int{42}, cols: 7, p: 5},
		{name: "zero parts", rowNNZ: []int{1, 2}, cols: 3, p: 0, wantErr: ErrBadPartCount},
		{name: "negative parts", rowNNZ: []int{1, 2}, cols: 3, p: -4, wantErr: ErrBadPartCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBalancedRowFromCounts(tc.rowNNZ, tc.cols, tc.p)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := b.NumParts(); got != tc.p {
				t.Fatalf("NumParts() = %d, want %d", got, tc.p)
			}
			if err := Validate(b); err != nil {
				t.Fatalf("invalid partition: %v", err)
			}
			bounds := rowBoundaries(b)
			if bounds[0] != 0 || bounds[tc.p] != len(tc.rowNNZ) {
				t.Fatalf("boundaries %v do not span [0, %d]", bounds, len(tc.rowNNZ))
			}
			for k := 0; k < tc.p; k++ {
				if bounds[k] > bounds[k+1] {
					t.Fatalf("boundaries %v not monotonic at part %d", bounds, k)
				}
			}
		})
	}

	if _, err := NewBalancedRowFromCounts([]int{3, -1, 2}, 4, 2); err == nil {
		t.Error("negative nonzero count accepted")
	}
}
