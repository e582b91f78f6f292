// Package ekmr implements the Extended Karnaugh Map Representation for
// multi-dimensional sparse arrays — the paper's future-work direction
// (2), following the companion paper it cites (Lin, Liu, Chung,
// "Efficient Representation Scheme for Multi-Dimensional Array
// Operations", IEEE TC 51(3), 2002).
//
// EKMR(k) represents a k-dimensional array as one two-dimensional array
// by folding dimensions into the row and column axes the way a Karnaugh
// map folds boolean variables:
//
//	EKMR(3): A[k][i][j], dims (l, m, n) -> 2D (m) x (n·l),
//	         row = i, col = j·l + k
//
// Once in EKMR form, a multi-dimensional sparse array distributes with
// the unchanged 2-D SFC/CFS/ED machinery: that is exactly why the paper
// flags the combination as future work, and this package closes the
// loop (see TestDistributeEKMR3WithED).
package ekmr

import (
	"fmt"

	"repro/internal/sparse"
)

// Array3 is a three-dimensional array in EKMR(3) form. Dimension sizes
// follow the companion paper's naming: L is the folded (Karnaugh)
// dimension, M the row dimension, N the column dimension.
type Array3 struct {
	L, M, N int
	plane   *sparse.Dense // M x (N*L)
}

// NewArray3 allocates an all-zero l x m x n array (indexed A[k][i][j]
// with k < l, i < m, j < n).
func NewArray3(l, m, n int) (*Array3, error) {
	if l < 0 || m < 0 || n < 0 {
		return nil, fmt.Errorf("ekmr: NewArray3(%d, %d, %d): negative dimension", l, m, n)
	}
	return &Array3{L: l, M: m, N: n, plane: sparse.NewDense(m, n*l)}, nil
}

// index maps (k, i, j) to EKMR plane coordinates.
func (a *Array3) index(k, i, j int) (int, int) {
	if k < 0 || k >= a.L || i < 0 || i >= a.M || j < 0 || j >= a.N {
		panic(fmt.Sprintf("ekmr: index (%d, %d, %d) out of range %dx%dx%d", k, i, j, a.L, a.M, a.N))
	}
	return i, j*a.L + k
}

// At returns A[k][i][j].
func (a *Array3) At(k, i, j int) float64 {
	r, c := a.index(k, i, j)
	return a.plane.At(r, c)
}

// Set assigns A[k][i][j].
func (a *Array3) Set(k, i, j int, v float64) {
	r, c := a.index(k, i, j)
	a.plane.Set(r, c, v)
}

// Plane returns the EKMR 2-D representation (not a copy): an M x (N*L)
// dense array that the 2-D partition/compression/distribution machinery
// consumes unchanged.
func (a *Array3) Plane() *sparse.Dense { return a.plane }

// NNZ counts the nonzero elements.
func (a *Array3) NNZ() int { return a.plane.NNZ() }

// SparseRatio returns nnz / (l·m·n).
func (a *Array3) SparseRatio() float64 { return a.plane.SparseRatio() }

// Slab returns slab k (the m x n matrix A[k][.][.]) as a dense array.
func (a *Array3) Slab(k int) *sparse.Dense {
	if k < 0 || k >= a.L {
		panic(fmt.Sprintf("ekmr: slab %d out of range %d", k, a.L))
	}
	out := sparse.NewDense(a.M, a.N)
	for i := 0; i < a.M; i++ {
		for j := 0; j < a.N; j++ {
			out.Set(i, j, a.At(k, i, j))
		}
	}
	return out
}

// UniformArray3 generates a random l x m x n array with the given sparse
// ratio, deterministic in the seed.
func UniformArray3(l, m, n int, ratio float64, seed int64) (*Array3, error) {
	a, err := NewArray3(l, m, n)
	if err != nil {
		return nil, err
	}
	// Generate directly on the plane: the EKMR map is a bijection, so
	// uniform on the plane is uniform on the 3-D array.
	a.plane = sparse.Uniform(m, n*l, ratio, seed)
	return a, nil
}
