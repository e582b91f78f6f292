package partition

import (
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// Grid is the one partition type: a pr x pc processor grid in which
// processor P_{i,j} (part index i*pc + j) owns row set i crossed with
// column set j. Each axis is cut into contiguous ranges or dealt
// cyclically; the 1-D methods are the degenerate grids p x 1 and 1 x p.
// An axis stores only its rule; a *Grid builds its maps on first use.
type Grid struct {
	name       string
	rows, cols axis
}

// axis is one dimension of a Grid: n indices cut into the ranges
// [cuts[k], cuts[k+1]) of q slots or, with cuts nil, dealt round-robin
// to q slots in blocks of b. maps[k] lists the indices slot k owns,
// ascending: built by the first map call, read-only after.
type axis struct {
	n, q, b int
	cuts    []int
	once    sync.Once
	maps    [][]int
}

// cutAxis is the paper's block rule (BlockCuts), the nnz-balanced
// boundaries, and with a single slot the whole dimension.
func cutAxis(cuts []int) axis { return axis{n: cuts[len(cuts)-1], q: len(cuts) - 1, cuts: cuts} }

// cyclicAxis deals blocks of b consecutive indices round-robin to q
// slots (b = 1 is the pure cyclic rule, larger b the BRS rule). The
// owner of index i is i / b % q — no product of b and q is ever formed,
// so a block wider than the dimension is simply one block.
func cyclicAxis(n, q, b int) axis { return axis{n: n, q: q, b: b} }

// slots returns the maps, building them once whichever goroutine asks
// first. Cut maps are slices of one [0, n) array, each capped at its
// own end so an append by a caller cannot reach a neighbour's indices;
// a slot dealt nothing keeps an empty, non-nil map.
func (a *axis) slots() [][]int {
	a.once.Do(func() {
		a.maps = make([][]int, a.q)
		if a.cuts == nil {
			for k := range a.maps {
				a.maps[k] = []int{}
			}
			for i := 0; i < a.n; i++ {
				k := i / a.b % a.q
				a.maps[k] = append(a.maps[k], i)
			}
			return
		}
		all := make([]int, a.n)
		for i := range all {
			all[i] = i
		}
		for k := range a.maps {
			a.maps[k] = all[a.cuts[k]:a.cuts[k+1]:a.cuts[k+1]]
		}
	})
	return a.maps
}

// owners tabulates the inverse of the rule: the slot of every index.
func (a *axis) owners() []int32 {
	owner := make([]int32, a.n)
	if a.cuts == nil {
		for i := range owner {
			owner[i] = int32(i / a.b % a.q)
		}
		return owner
	}
	for k := 0; k < a.q; k++ {
		for i := a.cuts[k]; i < a.cuts[k+1]; i++ {
			owner[i] = int32(k)
		}
	}
	return owner
}

// BlockCuts returns the paper's partition rule as q+1 boundaries: block
// k of n items is [cuts[k], cuts[k+1]), every block ceil(n/q) long
// except possibly trailing ones (which may be short or empty).
func BlockCuts(n, q int) []int {
	size := (n + q - 1) / q
	cuts := make([]int, q+1)
	for k := 1; k <= q; k++ {
		cuts[k] = min(k*size, n)
	}
	return cuts
}

// Name implements Partition.
func (g *Grid) Name() string { return g.name }

// Shape implements Partition.
func (g *Grid) Shape() (int, int) { return g.rows.n, g.cols.n }

// NumParts implements Partition.
func (g *Grid) NumParts() int { return g.rows.q * g.cols.q }

// Grid returns the processor grid dimensions.
func (g *Grid) Grid() (pr, pc int) { return g.rows.q, g.cols.q }

// RowMap implements Partition.
func (g *Grid) RowMap(k int) []int { return g.rows.slots()[g.checkPart(k)/g.cols.q] }

// ColMap implements Partition.
func (g *Grid) ColMap(k int) []int { return g.cols.slots()[g.checkPart(k)%g.cols.q] }

func (g *Grid) checkPart(k int) int {
	if k < 0 || k >= g.NumParts() {
		panic(fmt.Sprintf("partition: part %d out of range [0, %d)", k, g.NumParts()))
	}
	return k
}

// NewRow builds the paper's row partition method (Block, *) of a
// rows x cols array into p parts: part k owns contiguous rows
// k*ceil(rows/p) .. and every column.
func NewRow(rows, cols, p int) (*Grid, error) {
	if err := checkShape(rows, cols, p); err != nil {
		return nil, fmt.Errorf("partition: row: %w", err)
	}
	return &Grid{"row", cutAxis(BlockCuts(rows, p)), cutAxis([]int{0, cols})}, nil
}

// NewCol builds the paper's column partition method (*, Block) of a
// rows x cols array into p parts.
func NewCol(rows, cols, p int) (*Grid, error) {
	if err := checkShape(rows, cols, p); err != nil {
		return nil, fmt.Errorf("partition: col: %w", err)
	}
	return &Grid{"col", cutAxis([]int{0, rows}), cutAxis(BlockCuts(cols, p))}, nil
}

// NewMesh builds the paper's 2D mesh partition method (Block, Block)
// over a pr x pc processor grid: processor P_{i,j} owns contiguous row
// block i crossed with contiguous column block j.
func NewMesh(rows, cols, pr, pc int) (*Grid, error) {
	if err := checkDims(rows, cols); err != nil {
		return nil, fmt.Errorf("partition: mesh: %w", err)
	}
	if pr <= 0 || pc <= 0 {
		return nil, fmt.Errorf("partition: mesh: grid %dx%d must be positive", pr, pc)
	}
	name := fmt.Sprintf("mesh%dx%d", pr, pc)
	return &Grid{name, cutAxis(BlockCuts(rows, pr)), cutAxis(BlockCuts(cols, pc))}, nil
}

// NewCyclicRow builds a row-cyclic partition, dealing single rows
// round-robin: part k owns rows {k, k+p, k+2p, ...} and every column.
// This is the cyclic partition the paper's introduction mentions; index
// conversion needs the map form.
func NewCyclicRow(rows, cols, p int) (*Grid, error) {
	if err := checkShape(rows, cols, p); err != nil {
		return nil, fmt.Errorf("partition: cyclic-row: %w", err)
	}
	return &Grid{"cyclic-row", cyclicAxis(rows, p, 1), cutAxis([]int{0, cols})}, nil
}

// NewCyclicCol builds a column-cyclic partition, dealing single columns
// round-robin.
func NewCyclicCol(rows, cols, p int) (*Grid, error) {
	if err := checkShape(rows, cols, p); err != nil {
		return nil, fmt.Errorf("partition: cyclic-col: %w", err)
	}
	return &Grid{"cyclic-col", cutAxis([]int{0, rows}), cyclicAxis(cols, p, 1)}, nil
}

// NewBlockCyclicRow builds a block-cyclic row partition, dealing row
// blocks of the given size round-robin — the Block Row Scatter (BRS)
// distribution of Zapata et al. that the paper uses as its SFC
// baseline.
func NewBlockCyclicRow(rows, cols, p, block int) (*Grid, error) {
	if err := checkShape(rows, cols, p); err != nil {
		return nil, fmt.Errorf("partition: block-cyclic-row: %w", err)
	}
	if block <= 0 {
		return nil, fmt.Errorf("partition: block-cyclic-row: block size %d must be positive", block)
	}
	name := fmt.Sprintf("brs-b%d", block)
	return &Grid{name, cyclicAxis(rows, p, block), cutAxis([]int{0, cols})}, nil
}

// NewCyclicMesh builds the two-dimensional block-cyclic distribution
// used by ScaLAPACK-style libraries: a pr x pc processor grid where
// processor P_{i,j} owns rows {i, i+pr, ...} block-cyclically with
// block size br and columns {j, j+pc, ...} with block size bc. With
// br = bc = 1 this is the pure 2-D cyclic distribution; with blocks
// spanning the whole dimension it degenerates to the mesh partition.
func NewCyclicMesh(rows, cols, pr, pc, br, bc int) (*Grid, error) {
	if err := checkDims(rows, cols); err != nil {
		return nil, fmt.Errorf("partition: cyclic-mesh: %w", err)
	}
	if pr <= 0 || pc <= 0 {
		return nil, fmt.Errorf("partition: cyclic-mesh: grid %dx%d must be positive", pr, pc)
	}
	if br <= 0 || bc <= 0 {
		return nil, fmt.Errorf("partition: cyclic-mesh: block %dx%d must be positive", br, bc)
	}
	name := fmt.Sprintf("cyclic-mesh%dx%d-b%dx%d", pr, pc, br, bc)
	return &Grid{name, cyclicAxis(rows, pr, br), cyclicAxis(cols, pc, bc)}, nil
}

// checkDims is the shape validation every constructor shares. The maps
// and a Locator's int32 owner tables, once built, are O(rows + cols)
// words, so a shape sparse.CheckIndexSpan refuses is an error here
// instead of a fatal allocation failure further down.
func checkDims(rows, cols int) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("negative shape %dx%d", rows, cols)
	}
	return sparse.CheckIndexSpan(rows, cols)
}

func checkShape(rows, cols, p int) error {
	if err := checkDims(rows, cols); err != nil {
		return err
	}
	if p <= 0 {
		return fmt.Errorf("part count %d must be positive", p)
	}
	return nil
}
