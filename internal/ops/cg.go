package ops

import "fmt"

// CGResult reports the outcome of a conjugate-gradient solve.
type CGResult struct {
	X          []float64
	Iterations int
	Residual   float64
	Converged  bool
}

// CG solves A·x = b by the conjugate gradient method, where A is known
// only through matvec (p -> A·p) and must be symmetric positive
// definite (e.g. the 2-D Poisson matrix). The vector updates are
// sequential; the caller decides where the products run — a local
// SpMV for an oracle, the distributed halo SpMV in core.Distribution.
// maxIter <= 0 means 10·len(b).
func CG(matvec func([]float64) ([]float64, error), b []float64, tol float64, maxIter int) (*CGResult, error) {
	n := len(b)
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	x := make([]float64, n)
	r := make([]float64, n)
	copy(r, b)
	p := make([]float64, n)
	copy(p, b)
	rsOld, err := Dot(r, r)
	if err != nil {
		return nil, err
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		return &CGResult{X: x, Converged: true}, nil
	}

	for iter := 1; iter <= maxIter; iter++ {
		ap, err := matvec(p)
		if err != nil {
			return nil, fmt.Errorf("ops: CG iteration %d: %w", iter, err)
		}
		pap, err := Dot(p, ap)
		if err != nil {
			return nil, fmt.Errorf("ops: CG iteration %d: %w", iter, err)
		}
		if pap == 0 {
			return &CGResult{X: x, Iterations: iter, Residual: Norm2(r) / bnorm}, nil
		}
		alpha := rsOld / pap
		if err := Axpy(alpha, p, x); err != nil {
			return nil, err
		}
		if err := Axpy(-alpha, ap, r); err != nil {
			return nil, err
		}
		rsNew, err := Dot(r, r)
		if err != nil {
			return nil, err
		}
		if rel := Norm2(r) / bnorm; rel < tol {
			return &CGResult{X: x, Iterations: iter, Residual: rel, Converged: true}, nil
		}
		beta := rsNew / rsOld
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rsOld = rsNew
	}
	return &CGResult{X: x, Iterations: maxIter, Residual: Norm2(r) / bnorm}, nil
}
