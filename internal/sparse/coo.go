package sparse

import (
	"fmt"
	"sort"
)

// Entry is one nonzero element in coordinate (triplet) form.
type Entry struct {
	Row, Col int
	Val      float64
}

// COO is a sparse array in coordinate form: an explicit list of nonzero
// entries plus the array shape. It is the interchange format between the
// dense substrate, the partitioners, and the compressed formats.
type COO struct {
	Rows, Cols int
	Entries    []Entry
}

// NewCOO returns an empty COO of the given shape.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: NewCOO(%d, %d): negative dimension", rows, cols))
	}
	return &COO{Rows: rows, Cols: cols}
}

// Add appends a nonzero entry. Zero values are ignored so that generators
// can call Add unconditionally. It panics on out-of-range coordinates.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO.Add(%d, %d) out of range %dx%d", i, j, c.Rows, c.Cols))
	}
	if v == 0 {
		return
	}
	c.Entries = append(c.Entries, Entry{Row: i, Col: j, Val: v})
}

// NNZ returns the number of stored entries.
func (c *COO) NNZ() int { return len(c.Entries) }

// SparseRatio returns nnz/(rows*cols).
func (c *COO) SparseRatio() float64 {
	if c.Rows*c.Cols == 0 {
		return 0
	}
	return float64(c.NNZ()) / float64(c.Rows*c.Cols)
}

// SortRowMajor orders entries by (row, col). CRS compression and the
// row-major ED buffer require this order.
func (c *COO) SortRowMajor() {
	sort.Slice(c.Entries, func(a, b int) bool {
		ea, eb := c.Entries[a], c.Entries[b]
		if ea.Row != eb.Row {
			return ea.Row < eb.Row
		}
		return ea.Col < eb.Col
	})
}

// ToDense materialises the COO as a dense array.
func (c *COO) ToDense() *Dense {
	d := NewDense(c.Rows, c.Cols)
	for _, e := range c.Entries {
		d.Set(e.Row, e.Col, e.Val)
	}
	return d
}

// FromDense extracts the nonzero entries of a dense array in row-major
// order.
func FromDense(d *Dense) *COO {
	c := NewCOO(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		for j, v := range row {
			if v != 0 {
				c.Entries = append(c.Entries, Entry{Row: i, Col: j, Val: v})
			}
		}
	}
	return c
}

// Clone returns a deep copy.
func (c *COO) Clone() *COO {
	out := &COO{Rows: c.Rows, Cols: c.Cols, Entries: make([]Entry, len(c.Entries))}
	copy(out.Entries, c.Entries)
	return out
}

// Validate checks that every entry is in range and nonzero.
func (c *COO) Validate() error {
	if c.Rows < 0 || c.Cols < 0 {
		return fmt.Errorf("sparse: COO has negative shape %dx%d", c.Rows, c.Cols)
	}
	for k, e := range c.Entries {
		if e.Row < 0 || e.Row >= c.Rows || e.Col < 0 || e.Col >= c.Cols {
			return fmt.Errorf("sparse: COO entry %d at (%d, %d) out of range %dx%d", k, e.Row, e.Col, c.Rows, c.Cols)
		}
		if e.Val == 0 {
			return fmt.Errorf("sparse: COO entry %d at (%d, %d) stores explicit zero", k, e.Row, e.Col)
		}
	}
	return nil
}
