package ops

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/sparse"
)

// denseSpMV is the reference implementation.
func denseSpMV(d *sparse.Dense, x []float64) []float64 {
	y := make([]float64, d.Rows())
	for i := 0; i < d.Rows(); i++ {
		for j, v := range d.Row(i) {
			y[i] += v * x[j]
		}
	}
	return y
}

func vec(n int, f func(int) float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f(i)
	}
	return v
}

func vecsEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestSpMVMatchesDense(t *testing.T) {
	d := sparse.PaperFigure1()
	x := vec(8, func(i int) float64 { return float64(i + 1) })
	a := compress.CompressCRS(d, nil)
	y, err := SpMV(a, x)
	if err != nil {
		t.Fatal(err)
	}
	if !vecsEqual(y, denseSpMV(d, x), 1e-12) {
		t.Errorf("SpMV = %v, want %v", y, denseSpMV(d, x))
	}
}

func TestSpMVProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := sparse.Uniform(13, 9, 0.3, seed)
		x := vec(9, func(i int) float64 { return float64((i*7)%5) - 2 })
		crs := compress.CompressCRS(d, nil)
		ccs := compress.CompressCCS(d, nil)
		want := denseSpMV(d, x)
		y1, err1 := SpMV(crs, x)
		y2, err2 := SpMVCCS(ccs, x)
		return err1 == nil && err2 == nil &&
			vecsEqual(y1, want, 1e-12) && vecsEqual(y2, want, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpMVJDSMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		d := sparse.Uniform(12, 10, 0.3, seed)
		x := vec(10, func(i int) float64 { return float64(i%4) - 1.5 })
		j := compress.CompressJDS(d, nil)
		y, err := SpMVJDS(j, x)
		if err != nil {
			return false
		}
		return vecsEqual(y, denseSpMV(d, x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpMVJDSDimensionError(t *testing.T) {
	j := compress.CompressJDS(sparse.NewDense(3, 4), nil)
	if _, err := SpMVJDS(j, make([]float64, 3)); err == nil {
		t.Error("wrong x length accepted")
	}
}

func TestSpMVDimensionErrors(t *testing.T) {
	a := compress.CompressCRS(sparse.NewDense(3, 4), nil)
	if _, err := SpMV(a, make([]float64, 3)); err == nil {
		t.Error("wrong x length accepted")
	}
	c := compress.CompressCCS(sparse.NewDense(3, 4), nil)
	if _, err := SpMVCCS(c, make([]float64, 5)); err == nil {
		t.Error("SpMVCCS wrong x length accepted")
	}
}

func TestVectorHelpers(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %g, want 5", got)
	}
}

// BenchmarkSpMVFormats times the sequential y = A·x kernels — the
// oracles every distributed op is checked against — across the three
// local formats on one 800x800 array at s = 0.1.
func BenchmarkSpMVFormats(b *testing.B) {
	g := sparse.UniformExact(800, 800, 0.1, 9)
	crs, ccs, jds := compress.CompressCRS(g, nil), compress.CompressCCS(g, nil), compress.CompressJDS(g, nil)
	x := vec(800, func(i int) float64 { return float64(i) })
	for _, k := range []struct {
		name string
		spmv func() ([]float64, error)
	}{
		{"CRS", func() ([]float64, error) { return SpMV(crs, x) }},
		{"CCS", func() ([]float64, error) { return SpMVCCS(ccs, x) }},
		{"JDS", func() ([]float64, error) { return SpMVJDS(jds, x) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := k.spmv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
