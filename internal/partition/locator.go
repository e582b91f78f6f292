package partition

import "fmt"

// Locator answers "which part owns global cell (i, j)?" in O(1) — the
// inverse of the ownership maps, needed wherever entries are routed one
// by one (the stream root, redistribution). It reads an int32 owner
// table per axis, built by NewLocator from the Grid's rule.
type Locator struct {
	rows, cols []int32
	pc         int
}

// NewLocator returns the locator of p, which must be a *Grid (the
// package's one implementation).
func NewLocator(p Partition) (*Locator, error) {
	g, ok := p.(*Grid)
	if !ok {
		return nil, fmt.Errorf("partition: locator: %T is not a *Grid", p)
	}
	return &Locator{rows: g.rows.owners(), cols: g.cols.owners(), pc: g.cols.q}, nil
}

// Owner returns the part owning global cell (i, j), or an error if the
// cell lies outside the array.
func (l *Locator) Owner(i, j int) (int, error) {
	if i < 0 || i >= len(l.rows) || j < 0 || j >= len(l.cols) {
		return 0, fmt.Errorf("partition: locator: cell (%d, %d) out of range %dx%d", i, j, len(l.rows), len(l.cols))
	}
	return int(l.rows[i])*l.pc + int(l.cols[j]), nil
}
