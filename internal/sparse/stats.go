package sparse

import (
	"fmt"
	"strings"
)

// Sparsity statistics used by the cost model: the paper's analysis is
// parameterised by the global sparse ratio s and by s', the largest
// sparse ratio among the local sparse arrays of a partition.

// RowNNZ returns the number of nonzeros in each row.
func RowNNZ(d *Dense) []int {
	counts := make([]int, d.Rows())
	for i := 0; i < d.Rows(); i++ {
		for _, v := range d.Row(i) {
			if v != 0 {
				counts[i]++
			}
		}
	}
	return counts
}

// Spy renders the sparsity pattern as ASCII art (the classic "spy
// plot"), downsampling the array onto a width x height character grid:
// ' ' for an all-zero cell block, '.' for sparse blocks, 'o' for
// middling ones and '#' for dense ones.
func Spy(d *Dense, width, height int) string {
	if width <= 0 || height <= 0 || d.Rows() == 0 || d.Cols() == 0 {
		return "(empty)\n"
	}
	if width > d.Cols() {
		width = d.Cols()
	}
	if height > d.Rows() {
		height = d.Rows()
	}
	counts := make([]int, width*height)
	cells := make([]int, width*height)
	for i := 0; i < d.Rows(); i++ {
		bi := i * height / d.Rows()
		row := d.Row(i)
		for j, v := range row {
			bj := j * width / d.Cols()
			cells[bi*width+bj]++
			if v != 0 {
				counts[bi*width+bj]++
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d, %d nonzeros (s = %.4f)\n", d.Rows(), d.Cols(), d.NNZ(), d.SparseRatio())
	for bi := 0; bi < height; bi++ {
		for bj := 0; bj < width; bj++ {
			idx := bi*width + bj
			frac := 0.0
			if cells[idx] > 0 {
				frac = float64(counts[idx]) / float64(cells[idx])
			}
			switch {
			case frac == 0:
				b.WriteByte(' ')
			case frac < 0.25:
				b.WriteByte('.')
			case frac < 0.75:
				b.WriteByte('o')
			default:
				b.WriteByte('#')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Stats summarises the sparsity of a set of local arrays.
type Stats struct {
	GlobalNNZ   int     // total nonzeros
	GlobalRatio float64 // paper's s
	MaxLocalNNZ int     // largest local nonzero count
	MaxRatio    float64 // paper's s': largest local sparse ratio
	MinRatio    float64 // smallest local sparse ratio
}

// LocalStats computes sparsity statistics over local arrays produced by a
// partition. Empty input yields a zero Stats.
func LocalStats(locals []*Dense) Stats {
	var st Stats
	first := true
	total := 0
	globalSize := 0
	for _, l := range locals {
		nnz := l.NNZ()
		total += nnz
		globalSize += l.Size()
		r := l.SparseRatio()
		if nnz > st.MaxLocalNNZ {
			st.MaxLocalNNZ = nnz
		}
		if first || r > st.MaxRatio {
			st.MaxRatio = r
		}
		if first || r < st.MinRatio {
			st.MinRatio = r
		}
		first = false
	}
	st.GlobalNNZ = total
	if globalSize > 0 {
		st.GlobalRatio = float64(total) / float64(globalSize)
	}
	return st
}
