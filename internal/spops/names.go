package spops

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/compress"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// The op vocabulary of the front doors (sparsedist -op, the daemon's
// JobSpec.Op and its loadgen): one list, one operand generator and one
// runner, so a CLI run and a service run of the same op on the same
// array and seed compute on the same data and count the same traffic.

// opNames are the ops a request can name.
var opNames = []string{"spmv", "jacobi", "spgemm"}

// OpNames lists the requestable ops for help and error strings.
func OpNames() string {
	last := len(opNames) - 1
	return strings.Join(opNames[:last], ", ") + " or " + opNames[last]
}

// ValidOp reports whether name is a requestable op; empty means "no
// op" and is valid.
func ValidOp(name string) bool { return name == "" || slices.Contains(opNames, name) }

// OpVector is the deterministic dense operand the op front doors
// compute with — reproducible from (n, seed) alone, so a client can
// rerun the op locally and compare.
func OpVector(n int, seed int64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((int64(i)*2654435761+seed)%17) / 4
	}
	return x
}

// RunOp runs the named op on g's distribution through its plan: spmv
// on x = OpVector(cols, seed), jacobi on b = OpVector(rows, seed+1) to
// tol 1e-9 in at most iters sweeps (0: 500), spgemm as C = A·A with g
// as its own right-hand operand. It returns the vector (spmv's y,
// jacobi's x) or the product, and the op's traffic.
func RunOp(m *machine.Machine, pl *CommPlan, g *sparse.Dense, op string, seed int64, iters int) ([]float64, *compress.CRS, OpStats, error) {
	var (
		vec []float64
		c   *compress.CRS
		st  OpStats
		err error
	)
	switch op {
	case "spmv":
		vec, st, err = SpMV(m, pl, OpVector(g.Cols(), seed))
	case "jacobi":
		if iters == 0 {
			iters = 500
		}
		vec, st, err = Jacobi(m, pl, OpVector(g.Rows(), seed+1), nil, 1e-9, iters)
	case "spgemm":
		c, st, err = DistSpGEMM(m, pl, compress.CompressCRS(g, nil))
	default:
		err = fmt.Errorf("unknown op %q", op)
	}
	return vec, c, st, err
}
