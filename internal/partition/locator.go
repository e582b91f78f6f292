package partition

import "fmt"

// Locator answers "which part owns global cell (i, j)?" in O(1) — the
// inverse of the ownership maps, needed by redistribution (every sender
// must route each of its nonzeros to its new owner). It reads the owner
// tables the Grid built at construction.
type Locator struct{ g *Grid }

// NewLocator returns the locator of p, which must be a *Grid (the
// package's one implementation).
func NewLocator(p Partition) (*Locator, error) {
	g, ok := p.(*Grid)
	if !ok {
		return nil, fmt.Errorf("partition: locator: %T is not a *Grid", p)
	}
	return &Locator{g}, nil
}

// Owner returns the part owning global cell (i, j), or an error if the
// cell lies outside the array.
func (l *Locator) Owner(i, j int) (int, error) {
	rows, cols := l.g.rows, l.g.cols
	if i < 0 || i >= len(rows.owner) || j < 0 || j >= len(cols.owner) {
		return 0, fmt.Errorf("partition: locator: cell (%d, %d) out of range %dx%d", i, j, len(rows.owner), len(cols.owner))
	}
	return int(rows.owner[i])*len(cols.maps) + int(cols.owner[j]), nil
}
