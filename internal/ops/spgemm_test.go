package ops

import (
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/sparse"
)

// denseMatMul is the reference product of dense arrays.
func denseMatMul(a, b *sparse.Dense) *sparse.Dense {
	out := sparse.NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			sum := 0.0
			for t := 0; t < a.Cols(); t++ {
				sum += a.At(i, t) * b.At(t, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func TestSpGEMMMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		da := sparse.Uniform(9, 7, 0.3, seed)
		db := sparse.Uniform(7, 11, 0.3, seed+1)
		c, err := SpGEMM(compress.CompressCRS(da, nil), compress.CompressCRS(db, nil))
		if err != nil || c.Validate() != nil {
			return false
		}
		return c.Decompress().ApproxEqual(denseMatMul(da, db), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpGEMMIdentity(t *testing.T) {
	a := compress.CompressCRS(sparse.PaperFigure1(), nil) // 10x8
	eye := compress.CompressCRS(sparse.Diagonal(8, 1), nil)
	c, err := SpGEMM(a, eye)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(a) {
		t.Error("A * I != A")
	}
}

func TestSpGEMMDimensionMismatch(t *testing.T) {
	a := compress.CompressCRS(sparse.NewDense(3, 4), nil)
	b := compress.CompressCRS(sparse.NewDense(3, 4), nil)
	if _, err := SpGEMM(a, b); err == nil {
		t.Error("inner dimension mismatch accepted")
	}
}

func TestSpGEMMCancellation(t *testing.T) {
	// A row times a column engineered to cancel exactly: [1 -1] * [1;1].
	a, _ := sparse.NewDenseFrom([][]float64{{1, -1}})
	b, _ := sparse.NewDenseFrom([][]float64{{1}, {1}})
	c, err := SpGEMM(compress.CompressCRS(a, nil), compress.CompressCRS(b, nil))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 {
		t.Errorf("cancelled product stored %d nonzeros", c.NNZ())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
