// Package partition implements the data partition phase of the paper:
// splitting a global two-dimensional array among p processors.
//
// Every supported partition assigns each processor a *cross product* of a
// set of global rows and a set of global columns — one type, Grid. The
// paper's three methods are block partitions whose sets are contiguous
// ranges:
//
//	Row  (Block, *)     – contiguous rows x all columns
//	Col  (*, Block)     – all rows x contiguous columns
//	Mesh (Block, Block) – contiguous rows x contiguous columns
//
// The extensions (paper §1 mentions cyclic methods; the BRS scheme of
// Zapata et al. scatters block-cyclically) use strided sets. Contiguous
// sets admit the paper's subtract-an-offset index conversion (Cases
// 3.2.x/3.3.x); strided sets require a map-based conversion, which the
// compress package also provides.
package partition

import (
	"fmt"

	"repro/internal/sparse"
)

// Partition describes how a rows x cols global array is divided among
// parts. Part k owns the cross product RowMap(k) x ColMap(k) of global
// indices; both maps are sorted ascending.
type Partition interface {
	// Name identifies the method (e.g. "row", "col", "mesh2x2").
	Name() string
	// Shape returns the global array shape this partition divides.
	Shape() (rows, cols int)
	// NumParts returns the number of parts (processors).
	NumParts() int
	// RowMap returns the sorted global row indices owned by part k.
	// The slice is built once, by the first call, and shared by every
	// caller and every goroutine: callers must not write to it.
	RowMap(k int) []int
	// ColMap returns the sorted global column indices owned by part k
	// (shared; callers must not write).
	ColMap(k int) []int
}

// Contiguous reports whether an index map is a contiguous range, in
// which case global-to-local conversion is the paper's single
// subtraction of the first element. The map must be strictly ascending,
// as every map a Partition hands out is: its endpoints then decide, in
// O(1).
func Contiguous(m []int) bool {
	return len(m) == 0 || m[len(m)-1]-m[0] == len(m)-1
}

// AppendPart appends part k of the global array to buf in row-major
// order and returns the extended slice: the data of the local dense
// array. This is the data partition phase proper: the root materialises
// the local sparse array that will be sent (SFC). Every cell is written,
// so buf (a pooled wire buffer, say) need not be zeroed. A contiguous
// column map (col, mesh and cyclic-row parts) is copied a row span at a
// time; a strided one cell by cell.
func AppendPart(buf []float64, g *sparse.Dense, p Partition, k int) []float64 {
	rm, cm := p.RowMap(k), p.ColMap(k)
	if n := len(cm); n > 0 && Contiguous(cm) {
		lo, hi := cm[0], cm[n-1]+1
		for _, gi := range rm {
			buf = append(buf, g.Row(gi)[lo:hi]...)
		}
		return buf
	}
	for _, gi := range rm {
		row := g.Row(gi)
		for _, gj := range cm {
			buf = append(buf, row[gj])
		}
	}
	return buf
}

// Extract copies part k of the global array into a new local dense
// array.
func Extract(g *sparse.Dense, p Partition, k int) *sparse.Dense {
	out := sparse.NewDense(len(p.RowMap(k)), len(p.ColMap(k)))
	AppendPart(out.Data()[:0], g, p, k)
	return out
}

// ExtractAll returns the local dense arrays of every part.
func ExtractAll(g *sparse.Dense, p Partition) []*sparse.Dense {
	out := make([]*sparse.Dense, p.NumParts())
	for k := range out {
		out[k] = Extract(g, p, k)
	}
	return out
}

// Validate checks that the partition covers every global cell exactly
// once: maps are sorted, in range, and the parts' cross products tile
// the rows x cols grid.
func Validate(p Partition) error {
	rows, cols := p.Shape()
	if rows < 0 || cols < 0 {
		return fmt.Errorf("partition %s: negative shape %dx%d", p.Name(), rows, cols)
	}
	seen := make([]int, rows*cols)
	for k := 0; k < p.NumParts(); k++ {
		rm, cm := p.RowMap(k), p.ColMap(k)
		if err := checkSorted(rm, rows); err != nil {
			return fmt.Errorf("partition %s part %d rows: %w", p.Name(), k, err)
		}
		if err := checkSorted(cm, cols); err != nil {
			return fmt.Errorf("partition %s part %d cols: %w", p.Name(), k, err)
		}
		for _, i := range rm {
			for _, j := range cm {
				seen[i*cols+j]++
			}
		}
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if n := seen[i*cols+j]; n != 1 {
				return fmt.Errorf("partition %s: cell (%d, %d) covered %d times", p.Name(), i, j, n)
			}
		}
	}
	return nil
}

func checkSorted(m []int, limit int) error {
	for i, v := range m {
		if v < 0 || v >= limit {
			return fmt.Errorf("index %d out of range [0, %d)", v, limit)
		}
		if i > 0 && m[i-1] >= v {
			return fmt.Errorf("map not strictly ascending at position %d", i)
		}
	}
	return nil
}
