package partition_test

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/partition"
)

// buildSpelled resolves a partition the way the front doors spell one:
// the eight names (mesh kinds on the most square grid, balanced-row
// over a fixed histogram), anything else as an HPF descriptor.
func buildSpelled(spelling string, rows, cols, p, block int) (partition.Partition, error) {
	pr, pc := partition.SquareGrid(p) // 1 x p for p <= 0, which the constructors refuse
	switch spelling {
	case "row":
		return partition.NewRow(rows, cols, p)
	case "col":
		return partition.NewCol(rows, cols, p)
	case "mesh":
		return partition.NewMesh(rows, cols, pr, pc)
	case "cyclic-row":
		return partition.NewCyclicRow(rows, cols, p)
	case "cyclic-col":
		return partition.NewCyclicCol(rows, cols, p)
	case "brs":
		return partition.NewBlockCyclicRow(rows, cols, p, block)
	case "cyclic-mesh":
		return partition.NewCyclicMesh(rows, cols, pr, pc, block, block)
	case "balanced-row":
		if rows < 0 {
			return nil, errors.New("a histogram has no negative length")
		}
		counts := make([]int, rows)
		for i := range counts {
			counts[i] = i * 7 % 5
		}
		return partition.NewBalancedRowFromCounts(counts, cols, p)
	default:
		return partition.Parse(spelling, rows, cols, p)
	}
}

// FuzzPartition aims every spelling of a partition — the eight names
// and arbitrary descriptor strings — at small shapes with an unbounded
// block size, the input the daemon takes from a request unchecked. No
// input may panic or allocate past 1 MiB (a block size is a stride, not
// an allocation size); a partition that builds tiles the array exactly
// once, and the locator agrees with the maps on every cell.
func FuzzPartition(f *testing.F) {
	for _, name := range []string{"row", "col", "mesh", "cyclic-row", "cyclic-col", "brs", "cyclic-mesh", "balanced-row"} {
		f.Add(name, 10, 8, 4, 3)
		f.Add(name, 3, 2, 6, 1<<62) // the block whose product with p wraps to 0
	}
	for _, desc := range []string{
		"(Block,*)", "(Cyclic(2),*)", "(Block,Block)", "(*,Cyclic)", "(Cyclic(2),Cyclic(3))",
		"(Cyclic(4611686018427387904),*)", "(Cyclic(9223372036854775807),Cyclic)",
		"", "(Block)", "(*,*)", "(Frob,*)", "(Cyclic(0),*)", "(Cyclic(x),*)", "(*,Cyclic(4))", "Block,Block,Block",
	} {
		f.Add(desc, 10, 8, 4, 1)
	}
	f.Add("row", -1, 8, 4, 1)
	f.Add("brs", 10, 8, 0, -1)

	f.Fuzz(func(t *testing.T, spelling string, rows, cols, p, block int) {
		rows, cols, p = rows%65, cols%65, p%65
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		defer func() {
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%q %dx%d p=%d block=%d allocated %d bytes, budget 1 MiB", spelling, rows, cols, p, block, got)
			}
		}()

		part, err := buildSpelled(spelling, rows, cols, p, block)
		if err != nil {
			return
		}
		if rows < 0 || cols < 0 || p <= 0 {
			t.Fatalf("%q built over %dx%d with p=%d", spelling, rows, cols, p)
		}
		if got := part.NumParts(); got != p {
			t.Fatalf("%s: NumParts = %d, want %d", part.Name(), got, p)
		}
		if err := partition.Validate(part); err != nil {
			t.Fatal(err)
		}
		loc, err := partition.NewLocator(part)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < p; k++ {
			for _, i := range part.RowMap(k) {
				for _, j := range part.ColMap(k) {
					if got, err := loc.Owner(i, j); err != nil || got != k {
						t.Fatalf("%s: Owner(%d, %d) = %d, %v; part %d's maps hold the cell", part.Name(), i, j, got, err, k)
					}
				}
			}
		}
	})
}
