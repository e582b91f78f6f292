package sparse

import (
	"fmt"
	"math"
	"math/rand"
)

// Generators for synthetic sparse workloads. The paper's experiments use
// uniform random two-dimensional sparse arrays with sparse ratio s = 0.1;
// the Harwell-Boeing collection it cites motivates banded and clustered
// patterns as well, so those are provided for the example applications.

// Uniform generates a rows x cols array in which each element is nonzero
// independently with probability ratio. Nonzero values are drawn uniformly
// from (0, 1]. The generator is deterministic for a given seed.
func Uniform(rows, cols int, ratio float64, seed int64) *Dense {
	if ratio < 0 || ratio > 1 {
		panic(fmt.Sprintf("sparse: Uniform ratio %g out of [0, 1]", ratio))
	}
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(rows, cols)
	for i := range d.data {
		if rng.Float64() < ratio {
			d.data[i] = 1 - rng.Float64() // in (0, 1]
		}
	}
	return d
}

// UniformExact generates a rows x cols array with exactly
// round(ratio*rows*cols) nonzeros placed uniformly at random without
// replacement. Use it when the experiment requires the sparse ratio to be
// exact rather than expected.
func UniformExact(rows, cols int, ratio float64, seed int64) *Dense {
	if ratio < 0 || ratio > 1 {
		panic(fmt.Sprintf("sparse: UniformExact ratio %g out of [0, 1]", ratio))
	}
	size := rows * cols
	want := int(ratio*float64(size) + 0.5)
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(rows, cols)
	// Floyd's sampling: choose `want` distinct positions out of `size`.
	// A chosen cell holds a value in (0, 1], never 0, so the array itself
	// is the set of positions already taken.
	for k := size - want; k < size; k++ {
		pos := rng.Intn(k + 1)
		if d.data[pos] != 0 {
			pos = k
		}
		d.data[pos] = 1 - rng.Float64()
	}
	return d
}

// Banded generates a rows x cols array with nonzeros only within the given
// bandwidth of the diagonal: element (i, j) may be nonzero iff
// |i-j| <= bandwidth. Within the band each element is nonzero with
// probability fill.
func Banded(rows, cols, bandwidth int, fill float64, seed int64) *Dense {
	if bandwidth < 0 {
		panic(fmt.Sprintf("sparse: Banded bandwidth %d negative", bandwidth))
	}
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		lo := i - bandwidth
		if lo < 0 {
			lo = 0
		}
		hi := i + bandwidth
		if hi >= cols {
			hi = cols - 1
		}
		for j := lo; j <= hi; j++ {
			if rng.Float64() < fill {
				d.Set(i, j, 1-rng.Float64())
			}
		}
	}
	return d
}

// Diagonal generates a square n x n array with the given values on the
// main diagonal (values are cycled if shorter than n).
func Diagonal(n int, values ...float64) *Dense {
	if len(values) == 0 {
		values = []float64{1}
	}
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, values[i%len(values)])
	}
	return d
}

// BlockClustered generates an array whose nonzeros cluster into random
// dense blocks, mimicking finite-element connectivity matrices. blocks is
// the number of clusters, blockSize their edge length, and fill the
// density inside a cluster.
func BlockClustered(rows, cols, blocks, blockSize int, fill float64, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(rows, cols)
	if rows == 0 || cols == 0 {
		return d
	}
	for b := 0; b < blocks; b++ {
		r0 := rng.Intn(rows)
		c0 := rng.Intn(cols)
		for i := r0; i < r0+blockSize && i < rows; i++ {
			for j := c0; j < c0+blockSize && j < cols; j++ {
				if rng.Float64() < fill {
					d.Set(i, j, 1-rng.Float64())
				}
			}
		}
	}
	return d
}

// Poisson2D builds the standard 5-point finite-difference Laplacian on a
// g x g grid: an n x n sparse array with n = g*g, 4 on the diagonal and -1
// for each grid neighbour. It is the classic PDE workload motivating the
// paper's finite-element examples and is symmetric positive definite, so
// the conjugate-gradient example can use it.
func Poisson2D(g int) *COO {
	n := g * g
	c := NewCOO(n, n)
	for y := 0; y < g; y++ {
		for x := 0; x < g; x++ {
			i := y*g + x
			c.Add(i, i, 4)
			if x > 0 {
				c.Add(i, i-1, -1)
			}
			if x < g-1 {
				c.Add(i, i+1, -1)
			}
			if y > 0 {
				c.Add(i, i-g, -1)
			}
			if y < g-1 {
				c.Add(i, i+g, -1)
			}
		}
	}
	c.SortRowMajor()
	return c
}

// PaperFigure1 returns the exact 10x8 sparse array with 16 nonzero
// elements used as the worked example in Figures 1-7 of the paper.
// Values 1..16 are assigned in row-major order of the nonzero positions.
func PaperFigure1() *Dense {
	rows := [][]float64{
		{0, 1, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 2, 0},
		{3, 0, 0, 0, 0, 0, 0, 4},
		{0, 0, 0, 0, 0, 5, 0, 0},
		{0, 0, 0, 6, 0, 0, 0, 0},
		{0, 0, 0, 0, 7, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 8, 0},
		{0, 0, 0, 0, 9, 0, 0, 10},
		{0, 11, 12, 0, 13, 0, 0, 0},
		{14, 0, 0, 15, 0, 0, 16, 0},
	}
	d, err := NewDenseFrom(rows)
	if err != nil {
		panic(err) // unreachable: literal rows are rectangular
	}
	return d
}

// MakeDiagDominant rewrites g's diagonal to 1.25·(off-diagonal row
// sum) + 1 in place. Jacobi runs on this variant of a synthetic array:
// plain uniform arrays are nowhere near diagonally dominant, so the
// iteration would diverge on them (and a zero diagonal entry would
// reject the plan outright). The spectral radius of the iteration
// matrix stays below 0.8, so convergence is fast and iteration counts
// are stable across shapes.
func MakeDiagDominant(g *Dense) {
	for i := 0; i < g.rows && i < g.cols; i++ {
		sum := 0.0
		for j, v := range g.Row(i) {
			if j != i {
				sum += math.Abs(v)
			}
		}
		g.Set(i, i, 1.25*sum+1)
	}
}
