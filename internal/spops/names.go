package spops

import (
	"slices"
	"strings"
)

// The op vocabulary of the front doors (sparsedist -op, the daemon's
// JobSpec.Op and its loadgen): one list and one operand generator, so
// a CLI run and a service run of the same op compute on the same data.

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
