package partition_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/sparse"
)

// allKinds builds one partition of every kind over a rows x cols array
// and 4 parts, in the order TestGoldenNamesAndGrids lists them.
func allKinds(t testing.TB, rows, cols int) []*partition.Grid {
	t.Helper()
	must := func(g *partition.Grid, err error) *partition.Grid {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return []*partition.Grid{
		must(partition.NewRow(rows, cols, 4)),
		must(partition.NewCol(rows, cols, 4)),
		must(partition.NewMesh(rows, cols, 2, 2)),
		must(partition.NewCyclicRow(rows, cols, 4)),
		must(partition.NewCyclicCol(rows, cols, 4)),
		must(partition.NewBlockCyclicRow(rows, cols, 4, 3)),
		must(partition.NewCyclicMesh(rows, cols, 2, 2, 2, 3)),
		must(partition.NewBalancedRowFromCounts(sparse.RowNNZ(sparse.Uniform(rows, cols, 0.2, 7)), cols, 4)),
	}
}

// TestGoldenNamesAndGrids pins what the rest of the system keys on:
// plan-cache keys, JobResult.partition and bench/ all carry
// the Name() strings, and Grid() is the processor grid behind them.
func TestGoldenNamesAndGrids(t *testing.T) {
	want := []struct {
		name   string
		pr, pc int
	}{
		{"row", 4, 1},
		{"col", 1, 4},
		{"mesh2x2", 2, 2},
		{"cyclic-row", 4, 1},
		{"cyclic-col", 1, 4},
		{"brs-b3", 4, 1},
		{"cyclic-mesh2x2-b2x3", 2, 2},
		{"balanced-row", 4, 1},
	}
	for i, g := range allKinds(t, 14, 10) {
		pr, pc := g.Grid()
		if g.Name() != want[i].name || pr != want[i].pr || pc != want[i].pc {
			t.Errorf("kind %d: %q on a %dx%d grid, want %q on %dx%d", i, g.Name(), pr, pc, want[i].name, want[i].pr, want[i].pc)
		}
		if g.NumParts() != 4 {
			t.Errorf("%s: NumParts = %d, want 4", g.Name(), g.NumParts())
		}
		if err := partition.Validate(g); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
	}
}

// TestCyclicAxisClosedForm holds the one cyclic rule to its definition:
// slot k owns {i : i / b % q = k}, for block sizes up to the ones whose
// product with q overflows — a block wider than the array is one block.
func TestCyclicAxisClosedForm(t *testing.T) {
	for _, n := range []int{0, 1, 10, 13} {
		for _, q := range []int{1, 3, 4, n + 5} {
			for _, b := range []int{1, 2, 3, n, n + 1, 1 << 62, math.MaxInt} {
				if b == 0 {
					continue
				}
				t.Run(fmt.Sprintf("n%d/q%d/b%d", n, q, b), func(t *testing.T) {
					rowsDealt, err := partition.NewBlockCyclicRow(n, 3, q, b)
					if err != nil {
						t.Fatal(err)
					}
					bothDealt, err := partition.NewCyclicMesh(5, n, 2, q, 2, b)
					if err != nil {
						t.Fatal(err)
					}
					for _, g := range []*partition.Grid{rowsDealt, bothDealt} {
						if err := partition.Validate(g); err != nil {
							t.Fatal(err)
						}
					}
					for k := 0; k < q; k++ {
						want := []int{}
						for i := 0; i < n; i++ {
							if i/b%q == k {
								want = append(want, i)
							}
						}
						if got := rowsDealt.RowMap(k); got == nil || !slices.Equal(got, want) {
							t.Errorf("rows of part %d = %v, want %v", k, got, want)
						}
						if got := bothDealt.ColMap(k); got == nil || !slices.Equal(got, want) {
							t.Errorf("cols of slot %d = %v, want %v", k, got, want)
						}
					}
				})
			}
		}
	}
}

// TestDimensionAboveInt32Rejected: the owner tables index with int32,
// so every constructor turns an unindexable dimension into an error
// that names it, before anything is sized by it.
func TestDimensionAboveInt32Rejected(t *testing.T) {
	const huge = 1 << 62
	build := map[string]func(rows, cols int) (*partition.Grid, error){
		"row":         func(r, c int) (*partition.Grid, error) { return partition.NewRow(r, c, 4) },
		"col":         func(r, c int) (*partition.Grid, error) { return partition.NewCol(r, c, 4) },
		"mesh":        func(r, c int) (*partition.Grid, error) { return partition.NewMesh(r, c, 2, 2) },
		"cyclic-row":  func(r, c int) (*partition.Grid, error) { return partition.NewCyclicRow(r, c, 4) },
		"cyclic-col":  func(r, c int) (*partition.Grid, error) { return partition.NewCyclicCol(r, c, 4) },
		"brs":         func(r, c int) (*partition.Grid, error) { return partition.NewBlockCyclicRow(r, c, 4, 2) },
		"cyclic-mesh": func(r, c int) (*partition.Grid, error) { return partition.NewCyclicMesh(r, c, 2, 2, 1, 1) },
		"balanced-row": func(r, c int) (*partition.Grid, error) {
			return partition.NewBalancedRowFromCounts(make([]int, min(r, 8)), c, 4)
		},
	}
	for kind, fn := range build {
		if _, err := fn(8, huge); err == nil || !strings.Contains(err.Error(), "cols") {
			t.Errorf("%s: cols = 2^62 gave %v, want an error naming cols", kind, err)
		}
		if kind == "balanced-row" {
			continue // its rows are the length of a histogram that exists
		}
		if _, err := fn(huge, 8); err == nil || !strings.Contains(err.Error(), "rows") {
			t.Errorf("%s: rows = 2^62 gave %v, want an error naming rows", kind, err)
		}
	}
}

// TestMapAccessorsAllocateNothing: the maps and their inverse are built
// once, so reading them is free on every path that runs per part.
func TestMapAccessorsAllocateNothing(t *testing.T) {
	for _, g := range allKinds(t, 14, 10) {
		loc, err := partition.NewLocator(g)
		if err != nil {
			t.Fatal(err)
		}
		sink := 0
		allocs := testing.AllocsPerRun(100, func() {
			for k := 0; k < g.NumParts(); k++ {
				sink += len(g.RowMap(k)) + len(g.ColMap(k))
			}
			k, _ := loc.Owner(13, 9)
			sink += k
		})
		if allocs != 0 {
			t.Errorf("%s: RowMap/ColMap/Owner allocate %.0f times per pass, want 0", g.Name(), allocs)
		}
	}
}

// TestEmptyPartsAndCappedMaps pins the two properties of the shared
// maps a caller could trip over: a part that owns nothing still has a
// non-nil map, and appending to one part's map cannot reach another's.
func TestEmptyPartsAndCappedMaps(t *testing.T) {
	for _, g := range allKinds(t, 3, 2) { // fewer rows and columns than parts
		for k := 0; k < g.NumParts(); k++ {
			if g.RowMap(k) == nil || g.ColMap(k) == nil {
				t.Errorf("%s part %d: nil map", g.Name(), k)
			}
		}
	}
	g, err := partition.NewRow(10, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(g.RowMap(0), -1)
	if got := g.RowMap(1)[0]; got != 3 {
		t.Errorf("append to part 0's map overwrote part 1's first row: %d", got)
	}
}
