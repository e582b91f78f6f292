package ops

import (
	"errors"
	"testing"

	"repro/internal/compress"
	"repro/internal/sparse"
)

// crsMatvec is the sequential product CG runs on in these tests.
func crsMatvec(g *sparse.Dense) func([]float64) ([]float64, error) {
	a := compress.CompressCRS(g, nil)
	return func(p []float64) ([]float64, error) { return SpMV(a, p) }
}

func TestCGSolvesPoisson(t *testing.T) {
	const grid = 8 // 64x64 system
	g := sparse.Poisson2D(grid).ToDense()
	n := grid * grid

	// Manufactured solution: b = A * ones.
	ones := vec(n, func(int) float64 { return 1 })
	b := denseSpMV(g, ones)

	sol, err := CG(crsMatvec(g), b, 1e-10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatalf("CG did not converge: residual %g after %d iterations", sol.Residual, sol.Iterations)
	}
	if !vecsEqual(sol.X, ones, 1e-6) {
		t.Error("CG solution differs from manufactured solution")
	}
	if sol.Iterations >= 1000 {
		t.Errorf("CG took %d iterations", sol.Iterations)
	}
}

func TestCGZeroRHS(t *testing.T) {
	sol, err := CG(crsMatvec(sparse.Diagonal(6, 2)), make([]float64, 6), 1e-12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged || Norm2(sol.X) != 0 {
		t.Error("zero RHS must yield zero solution immediately")
	}
}

func TestCGErrors(t *testing.T) {
	// A 6x4 operator cannot be applied to a length-6 direction.
	if _, err := CG(crsMatvec(sparse.Uniform(6, 4, 0.5, 3)), vec(6, func(int) float64 { return 1 }), 1e-6, 5); err == nil {
		t.Error("non-square system accepted")
	}
	if _, err := CG(crsMatvec(sparse.Diagonal(4, 1)), vec(3, func(int) float64 { return 1 }), 1e-6, 5); err == nil {
		t.Error("wrong b length accepted")
	}
	boom := errors.New("boom")
	_, err := CG(func([]float64) ([]float64, error) { return nil, boom }, []float64{1}, 1e-6, 5)
	if !errors.Is(err, boom) {
		t.Errorf("matvec error not propagated: %v", err)
	}
}
