package partition

import (
	"slices"
	"testing"

	"repro/internal/sparse"
)

// TestAppendPartMatchesCellByCell holds AppendPart, which copies a row
// span at a time when a column map is contiguous, to the cell-by-cell
// read through At on every kind of partition, including empty parts,
// one-column parts and a buffer that already holds a prefix.
func TestAppendPartMatchesCellByCell(t *testing.T) {
	const rows, cols = 7, 9
	g := sparse.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			g.Set(i, j, float64(i*cols+j+1)) // every cell distinct
		}
	}
	must := func(p *Grid, err error) Partition {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	parts := []Partition{
		must(NewRow(rows, cols, 3)),
		must(NewRow(rows, cols, 10)), // empty row parts
		must(NewCol(rows, cols, 4)),
		must(NewCol(rows, cols, cols)),   // one column each
		must(NewCol(rows, cols, cols+3)), // empty column parts
		must(NewMesh(rows, cols, 2, 3)),
		must(NewMesh(rows, cols, 3, 9)), // one-column mesh parts
		must(NewCyclicRow(rows, cols, 3)),
		must(NewCyclicCol(rows, cols, 4)),
		must(NewBlockCyclicRow(rows, cols, 2, 3)),
		must(NewBalancedRowFromCounts(sparse.RowNNZ(g), g.Cols(), 3)),
		must(NewCyclicMesh(rows, cols, 2, 2, 1, 1)),
		must(NewCyclicMesh(rows, cols, 2, 2, 2, 3)),
	}
	prefix := []float64{-1, -2, -3}
	var empty, oneCol int
	for _, p := range parts {
		for k := 0; k < p.NumParts(); k++ {
			rm, cm := p.RowMap(k), p.ColMap(k)
			if len(rm)*len(cm) == 0 {
				empty++
			}
			if len(cm) == 1 {
				oneCol++
			}
			want := slices.Clone(prefix)
			for _, i := range rm {
				for _, j := range cm {
					want = append(want, g.At(i, j))
				}
			}
			if got := AppendPart(slices.Clone(prefix), g, p, k); !slices.Equal(got, want) {
				t.Errorf("%s part %d: AppendPart = %v, want %v", p.Name(), k, got, want)
			}
			if got := Extract(g, p, k).Data(); !slices.Equal(got, want[len(prefix):]) {
				t.Errorf("%s part %d: Extract = %v, want %v", p.Name(), k, got, want[len(prefix):])
			}
		}
	}
	if empty == 0 || oneCol == 0 {
		t.Fatalf("cases cover %d empty and %d one-column parts, want some of each", empty, oneCol)
	}
}
