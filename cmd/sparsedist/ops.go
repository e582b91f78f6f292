package main

// Distributed compute for the CLI: -op runs a sparsity-aware kernel
// (halo-exchange SpMV, Jacobi iteration or row-fetch SpGEMM) on the
// finished distribution and, under -verify, diffs the result against
// the sequential oracle computed from the dense input.

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// runOp executes the requested op over the distributed array and
// prints its traffic statistics.
func runOp(d *core.Distribution, g *sparse.Dense, op string, verify bool) error {
	fmt.Println()
	switch op {
	case "spmv":
		return runOpSpMV(d, g, verify)
	case "jacobi":
		return runOpJacobi(d, g, verify)
	case "spgemm":
		return runOpSpGEMM(d, g, verify)
	}
	return fmt.Errorf("unknown op %q", op)
}

func runOpSpMV(d *core.Distribution, g *sparse.Dense, verify bool) error {
	// Seed 1 is the daemon's default, so CLI and service runs of the
	// same array compute on the same operand.
	x := spops.OpVector(g.Cols(), 1)
	y, st, err := d.SpMV(x)
	if err != nil {
		return fmt.Errorf("spmv: %w", err)
	}
	fmt.Println("distributed " + core.OpStatsString(st))
	if verify {
		if err := vecClose(y, denseMatVec(g, x), 1e-9); err != nil {
			return fmt.Errorf("spmv oracle: %w", err)
		}
		fmt.Println("op oracle: OK (halo SpMV matches the sequential product)")
	}
	return nil
}

func runOpJacobi(d *core.Distribution, g *sparse.Dense, verify bool) error {
	if g.Rows() != g.Cols() {
		return fmt.Errorf("jacobi needs a square array, got %dx%d", g.Rows(), g.Cols())
	}
	// Right-hand side with a known solution x = 1: b = A·1.
	ones := make([]float64, g.Cols())
	for i := range ones {
		ones[i] = 1
	}
	b := denseMatVec(g, ones)
	x, st, err := d.Jacobi(b, 1e-10, 500)
	if err != nil {
		return fmt.Errorf("jacobi: %w", err)
	}
	fmt.Println("distributed " + core.OpStatsString(st))
	if !st.Converged {
		fmt.Println("jacobi did NOT converge — the array is not diagonally dominant " +
			"(synthetic inputs are adjusted automatically; file inputs are not)")
	}
	if verify {
		if !st.Converged {
			return fmt.Errorf("jacobi oracle: solver did not converge in %d iterations", st.Iterations)
		}
		r := denseMatVec(g, x)
		for i := range r {
			r[i] -= b[i]
		}
		if err := vecClose(r, make([]float64, len(r)), 1e-6); err != nil {
			return fmt.Errorf("jacobi oracle (residual A·x - b): %w", err)
		}
		fmt.Println("op oracle: OK (Jacobi solution satisfies A·x = b)")
	}
	return nil
}

func runOpSpGEMM(d *core.Distribution, g *sparse.Dense, verify bool) error {
	if g.Rows() != g.Cols() {
		return fmt.Errorf("spgemm computes C = A·A and needs a square array, got %dx%d", g.Rows(), g.Cols())
	}
	c, st, err := d.SpGEMM(compress.CompressCRS(g, nil))
	if err != nil {
		return fmt.Errorf("spgemm: %w", err)
	}
	fmt.Println("distributed " + core.OpStatsString(st))
	fmt.Printf("product: %dx%d with %d nonzeros\n", c.Rows, c.Cols, len(c.Val))
	if verify {
		if err := crsMatchesDenseProduct(c, g); err != nil {
			return fmt.Errorf("spgemm oracle: %w", err)
		}
		fmt.Println("op oracle: OK (row-fetch SpGEMM matches the sequential product)")
	}
	return nil
}

func denseMatVec(g *sparse.Dense, x []float64) []float64 {
	y := make([]float64, g.Rows())
	for i := 0; i < g.Rows(); i++ {
		s := 0.0
		for j := 0; j < g.Cols(); j++ {
			if v := g.At(i, j); v != 0 {
				s += v * x[j]
			}
		}
		y[i] = s
	}
	return y
}

func vecClose(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol*(1+math.Abs(want[i])) {
			return fmt.Errorf("element %d: got %g, want %g (diff %g)", i, got[i], want[i], d)
		}
	}
	return nil
}

// crsMatchesDenseProduct diffs the distributed product C against the
// dense g·g computed sequentially.
func crsMatchesDenseProduct(c *compress.CRS, g *sparse.Dense) error {
	n := g.Rows()
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			if a := g.At(i, k); a != 0 {
				for j := 0; j < n; j++ {
					if b := g.At(k, j); b != 0 {
						dense[i][j] += a * b
					}
				}
			}
		}
	}
	got := make([][]float64, c.Rows)
	for i := range got {
		got[i] = make([]float64, c.Cols)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			got[i][c.ColIdx[p]] = c.Val[p]
		}
	}
	for i := 0; i < n; i++ {
		if err := vecClose(got[i], dense[i], 1e-9); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}
