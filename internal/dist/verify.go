package dist

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// Verify checks a distribution result against ground truth: every rank's
// compressed local array must equal the direct compression of its part
// of the global array, with local indices. All three schemes must
// produce byte-identical results — only their phase costs differ.
//
// The comparison is made in place, cell by cell against the global
// array, with no dense copy of any part: a Validate-clean CRS or CCS is
// the only one its cells have, so holding exactly the part's nonzeros
// is being its direct compression. Extracting and compressing each part
// instead costs some 15 MB of transients per call on a 1000 x 1000
// array — enough, in a process that verifies often, to set the
// collector's heap goal and with it the resident size.
func Verify(g *sparse.Dense, part partition.Partition, res *Result) error {
	if res == nil {
		return fmt.Errorf("dist: Verify: nil result")
	}
	p := part.NumParts()
	arrays := res.PartArrays()
	if len(arrays) != p {
		return fmt.Errorf("dist: Verify: %d %s results for %d parts", len(arrays), res.Method, p)
	}
	for k, a := range arrays {
		m, err := validCRS(a)
		if err != nil {
			return fmt.Errorf("dist: Verify: rank %d: %w", k, err)
		}
		if !holdsPart(m, g, part.RowMap(k), part.ColMap(k)) {
			return fmt.Errorf("dist: Verify: rank %d %s differs from direct compression", k, res.Method)
		}
	}
	return nil
}

// validCRS returns one part's validated local array in CRS form: the
// array itself for CRS, a conversion for CCS and JDS. A JDS must also
// be the one direct compression lays out (rows in stable order of
// decreasing count), which its cells alone do not settle.
func validCRS(a compress.PartArray) (*compress.CRS, error) {
	switch a := a.(type) {
	case *compress.CRS:
		if a != nil {
			return a, a.Validate()
		}
	case *compress.CCS:
		if a != nil {
			if err := a.Validate(); err != nil {
				return nil, err
			}
			return compress.CCSToCRS(a), nil
		}
	case *compress.JDS:
		if a != nil {
			if err := a.Validate(); err != nil {
				return nil, err
			}
			m := compress.JDSToCRS(a)
			if !a.Equal(compress.CRSToJDS(m)) {
				return nil, fmt.Errorf("JDS rows are not in direct-compression order")
			}
			return m, nil
		}
	}
	return nil, fmt.Errorf("no result")
}

// holdsPart reports whether the valid local CRS m stores exactly the
// nonzeros of the part rowMap x colMap of g, under local indices.
func holdsPart(m *compress.CRS, g *sparse.Dense, rowMap, colMap []int) bool {
	if m.Rows != len(rowMap) || m.Cols != len(colMap) {
		return false
	}
	for i, gi := range rowMap {
		row := g.Row(gi)
		k, end := m.RowPtr[i], m.RowPtr[i+1]
		for j, gj := range colMap {
			if v := row[gj]; v != 0 {
				if k == end || m.ColIdx[k] != j || m.Val[k] != v {
					return false
				}
				k++
			}
		}
		if k != end {
			return false
		}
	}
	return true
}
