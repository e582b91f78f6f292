package core

import (
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/ops"
	"repro/internal/sparse"
	"repro/internal/spops"
)

// The ops differential sweep: the distributed compute layer (halo
// SpMV, Jacobi, row-fetch SpGEMM) is run under every scheme x
// partition x method combination and each result is diffed against the
// sequential oracle — a dense mat-vec, the residual of the linear
// system, or the sequential Gustavson SpGEMM. One
// failing combination is one OpsSweepFailure; the sweep never stops
// early.

// OpsSweepConfig selects the axes of an OpsSweep. The zero value
// sweeps SFC/CFS/ED over row/col/mesh/cyclic-row/balanced-row with
// CRS/CCS/JDS for all three ops.
type OpsSweepConfig struct {
	// Seed drives the input generators (default 1).
	Seed int64
	// Schemes, Partitions and Methods default to SFC/CFS/ED,
	// row/col/mesh/cyclic-row/balanced-row and CRS/CCS/JDS.
	Schemes    []string
	Partitions []string
	Methods    []string
	// Ops defaults to spmv, jacobi and spgemm.
	Ops []string
	// Progress, when non-nil, is called after every completed run.
	Progress func(done, total int)
}

func (sc OpsSweepConfig) withDefaults() OpsSweepConfig {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if len(sc.Schemes) == 0 {
		sc.Schemes = []string{"SFC", "CFS", "ED"}
	}
	if len(sc.Partitions) == 0 {
		sc.Partitions = []string{"row", "col", "mesh", "cyclic-row", "balanced-row"}
	}
	if len(sc.Methods) == 0 {
		sc.Methods = []string{"CRS", "CCS", "JDS"}
	}
	if len(sc.Ops) == 0 {
		sc.Ops = []string{"spmv", "jacobi", "spgemm"}
	}
	return sc
}

// OpsSweepFailure is one failing combination of an OpsSweep.
type OpsSweepFailure struct {
	Op        string
	Scheme    string
	Partition string
	Method    string
	Err       error
}

// String renders the failing combination with its error.
func (f OpsSweepFailure) String() string {
	return fmt.Sprintf("%s: %s/%s/%s: %v", f.Op, f.Scheme, f.Partition, f.Method, f.Err)
}

// OpsSweepResult is the outcome of an OpsSweep.
type OpsSweepResult struct {
	// Runs is the number of distribute-compute-verify runs executed.
	Runs int
	// Failures lists every combination whose op disagreed with its
	// sequential oracle.
	Failures []OpsSweepFailure
}

// OpsSweep runs every configured op across the scheme x partition x
// method matrix and verifies each answer against the sequential
// oracle. It collects failures instead of stopping at the first: a
// kernel bug that breaks one combination is reported alongside every
// other combination it breaks.
func OpsSweep(sc OpsSweepConfig) *OpsSweepResult {
	sc = sc.withDefaults()
	total := len(sc.Ops) * len(sc.Schemes) * len(sc.Partitions) * len(sc.Methods)
	res := &OpsSweepResult{}
	for _, op := range sc.Ops {
		for _, scheme := range sc.Schemes {
			for _, part := range sc.Partitions {
				for _, method := range sc.Methods {
					err := opsSweepOne(op, scheme, part, method, sc.Seed)
					res.Runs++
					if err != nil {
						res.Failures = append(res.Failures, OpsSweepFailure{
							Op: op, Scheme: scheme, Partition: part,
							Method: method, Err: err,
						})
					}
					if sc.Progress != nil {
						sc.Progress(res.Runs, total)
					}
				}
			}
		}
	}
	return res
}

// opsSweepOne distributes the op's input matrix under one combination,
// runs the distributed op and checks it against the sequential oracle.
func opsSweepOne(op, scheme, part, method string, seed int64) error {
	cfg := Config{Scheme: scheme, Partition: part, Method: method, Procs: 4, Check: true}
	g := opsSweepInput(op, seed)
	d, err := Distribute(g, cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	switch op {
	case "spmv":
		return opsSweepSpMV(d, g, seed)
	case "jacobi":
		return opsSweepJacobi(d, g)
	case "spgemm":
		return opsSweepSpGEMM(d, g, seed)
	default:
		return fmt.Errorf("core: unknown op %q (want spmv, jacobi or spgemm)", op)
	}
}

// opsSweepInput builds the op's deterministic test matrix: a
// rectangular uniform array for spmv/spgemm and a strictly diagonally
// dominant square one for jacobi.
func opsSweepInput(op string, seed int64) *sparse.Dense {
	switch op {
	case "jacobi":
		g := sparse.Uniform(40, 40, 0.12, seed)
		sparse.MakeDiagDominant(g)
		return g
	case "spgemm":
		return sparse.Uniform(30, 24, 0.15, seed)
	default:
		return sparse.Uniform(37, 29, 0.15, seed)
	}
}

func opsSweepSpMV(d *Distribution, g *sparse.Dense, seed int64) error {
	x := make([]float64, g.Cols())
	for i := range x {
		x[i] = float64((int64(i)*2654435761 + seed) % 17)
	}
	pl, err := d.CommPlan()
	if err != nil {
		return err
	}
	got, st, err := spops.SpMV(d.m, pl, x)
	if err != nil {
		return err
	}
	if st.WireWords <= 0 {
		return fmt.Errorf("core: spmv moved no wire words")
	}
	want := denseMatVec(g, x)
	return vecsClose("spmv", got, want, 1e-9)
}

func opsSweepJacobi(d *Distribution, g *sparse.Dense) error {
	b := make([]float64, g.Rows())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x, st, err := d.Jacobi(b, 1e-12, 500)
	if err != nil {
		return err
	}
	if !st.Converged {
		return fmt.Errorf("core: jacobi did not converge in %d iterations", st.Iterations)
	}
	// The oracle is the residual: A·x must reproduce b.
	return vecsClose("jacobi residual", denseMatVec(g, x), b, 1e-8)
}

func opsSweepSpGEMM(d *Distribution, g *sparse.Dense, seed int64) error {
	bDense := sparse.Uniform(g.Cols(), 18, 0.2, seed+1)
	b := compress.CompressCRS(bDense, nil)
	got, _, err := d.SpGEMM(b)
	if err != nil {
		return err
	}
	want, err := ops.SpGEMM(compress.CompressCRS(g, nil), b)
	if err != nil {
		return err
	}
	return crsClose("spgemm", got, want, 1e-9)
}

// CheckOp is the front doors' oracle for spops.RunOp's answer on g,
// rebuilt from the operands RunOp derives from seed: spmv's y against
// the dense product, jacobi's x by its residual A·x − b, spgemm's C
// against the sequential Gustavson product A·A.
func CheckOp(g *sparse.Dense, op string, seed int64, vec []float64, c *compress.CRS) error {
	switch op {
	case "spmv":
		return vecsClose(op, vec, denseMatVec(g, spops.OpVector(g.Cols(), seed)), 1e-9)
	case "jacobi":
		return vecsClose("jacobi residual", denseMatVec(g, vec), spops.OpVector(g.Rows(), seed+1), 1e-6)
	case "spgemm":
		a := compress.CompressCRS(g, nil)
		want, err := ops.SpGEMM(a, a)
		if err != nil {
			return err
		}
		return crsClose(op, c, want, 1e-9)
	}
	return fmt.Errorf("core: unknown op %q", op)
}

// denseMatVec is the sequential oracle y = G·x.
func denseMatVec(g *sparse.Dense, x []float64) []float64 {
	y := make([]float64, g.Rows())
	for i := 0; i < g.Rows(); i++ {
		s := 0.0
		for j := 0; j < g.Cols(); j++ {
			s += g.At(i, j) * x[j]
		}
		y[i] = s
	}
	return y
}

func vecsClose(what string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("core: %s length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			return fmt.Errorf("core: %s[%d] = %g, want %g", what, i, got[i], want[i])
		}
	}
	return nil
}

// crsClose diffs two CRS matrices element-wise through densification,
// so structurally different but numerically equal results (explicit
// zeros, ordering) still pass.
func crsClose(what string, got, want *compress.CRS, tol float64) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("core: %s shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	return vecsClose(what, densifyCRS(got), densifyCRS(want), tol)
}

func densifyCRS(c *compress.CRS) []float64 {
	out := make([]float64, c.Rows*c.Cols)
	for i := 0; i < c.Rows; i++ {
		for t := c.RowPtr[i]; t < c.RowPtr[i+1]; t++ {
			out[i*c.Cols+c.ColIdx[t]] += c.Val[t]
		}
	}
	return out
}
