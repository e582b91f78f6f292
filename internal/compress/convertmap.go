package compress

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/partition"
)

// Map-based global-to-local index conversion. The paper's Cases
// 3.2.1-3.2.3 / 3.3.1-3.3.3 cover block partitions, where conversion is
// a single subtraction; cyclic and block-cyclic partitions (the BRS
// baseline's distribution rule) own strided index sets, so the receiver
// converts through its ownership map instead. localIndexOf is a binary
// search, charged as one operation per converted index to stay
// comparable with the subtraction path — which convertToLocal takes
// itself whenever the map it is handed turns out to be contiguous.

// localIndexOf returns the position of global index g within the sorted
// ownership map, or an error if g is not owned.
func localIndexOf(m []int, g int) (int, error) {
	i := sort.SearchInts(m, g)
	if i >= len(m) || m[i] != g {
		return 0, errNotOwned(g)
	}
	return i, nil
}

func errNotOwned(g int) error {
	return fmt.Errorf("compress: global index %d not in ownership map", g)
}

// convertToLocal rewrites the global indices in idx into their positions
// within the sorted ownership map m. The map is inspected once: a
// contiguous one makes every conversion a subtraction and a range check,
// a strided one is searched per index. kind names the array in errors.
func convertToLocal(idx, m []int, kind string) error {
	if len(m) > 0 && partition.Contiguous(m) {
		for k, g := range idx {
			l := g - m[0]
			if l < 0 || l >= len(m) {
				return fmt.Errorf("compress: %s %d: %w", kind, k, errNotOwned(g))
			}
			idx[k] = l
		}
		return nil
	}
	for k, g := range idx {
		l, err := localIndexOf(m, g)
		if err != nil {
			return fmt.Errorf("compress: %s %d: %w", kind, k, err)
		}
		idx[k] = l
	}
	return nil
}

// ConvertColsToLocal rewrites global column indices into local ones via
// the sorted ownership map, charging one operation per index once all
// are converted. For contiguous maps this equals ShiftCols(map[0]) with
// a range check.
func (m *CRS) ConvertColsToLocal(colMap []int, ctr *cost.Counter) error {
	if err := convertToLocal(m.ColIdx, colMap, "CRS col"); err != nil {
		return err
	}
	ctr.AddOps(len(m.ColIdx))
	return nil
}

// ConvertRowsToLocal rewrites global row indices into local ones via the
// sorted ownership map; see ConvertColsToLocal.
func (m *CCS) ConvertRowsToLocal(rowMap []int, ctr *cost.Counter) error {
	if err := convertToLocal(m.RowIdx, rowMap, "CCS row"); err != nil {
		return err
	}
	ctr.AddOps(len(m.RowIdx))
	return nil
}

// EncodeEDPartInto is EncodeED driven by a cell accessor: the same
// buffer and the same total charge, booked cell by cell. No kernel of
// the distribution path calls it. It stays exported as the target of
// the benchmark module's ED encode probe and as the tests' reference
// for EncodeED, and goes once that probe moves to EncodeED (ROADMAP
// item 1b).
func EncodeEDPartInto(at func(i, j int) float64, rowMap, colMap []int, major Major, buf []float64, ctr *cost.Counter) []float64 {
	var counts int
	if major == RowMajor {
		counts = len(rowMap)
	} else {
		counts = len(colMap)
	}
	if cap(buf) < counts {
		// Reserve for up to 12.5% density (two words per nonzero); sparser
		// parts fit without growing, denser ones pay at most a couple of
		// geometric reallocations. The old cells/2 reservation assumed 25%
		// density and dominated peak memory on large sparse parts.
		buf = make([]float64, counts, counts+len(rowMap)*len(colMap)/4)
	} else {
		buf = buf[:counts]
		for i := range buf {
			buf[i] = 0
		}
	}
	if major == RowMajor {
		for li, gi := range rowMap {
			n := 0
			for _, gj := range colMap {
				if v := at(gi, gj); v != 0 {
					buf = append(buf, float64(gj), v)
					n++
					ctr.AddOps(3)
				}
			}
			buf[li] = float64(n)
			ctr.AddOps(len(colMap))
		}
	} else {
		for lj, gj := range colMap {
			n := 0
			for _, gi := range rowMap {
				if v := at(gi, gj); v != 0 {
					buf = append(buf, float64(gi), v)
					n++
					ctr.AddOps(3)
				}
			}
			buf[lj] = float64(n)
			ctr.AddOps(len(rowMap))
		}
	}
	return buf
}

// DecodeEDToCRSMap decodes a row-major special buffer converting global
// column indices through the ownership map (cyclic partitions). It is
// DecodeEDToCRS with a search in place of the subtraction: one charge of
// rows + 1 + 3·nnz once the buffer is accepted, nothing when it is not.
func DecodeEDToCRSMap(buf []float64, rows int, colMap []int, ctr *cost.Counter) (*CRS, error) {
	if rows < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCRSMap negative row count %d", rows)
	}
	ptr, idx, val, err := decodeED(buf, rows, len(colMap), 0, colMap, "row", "column", ctr)
	if err != nil {
		return nil, err
	}
	return &CRS{Rows: rows, Cols: len(colMap), RowPtr: ptr, ColIdx: idx, Val: val}, nil
}

// DecodeEDToCCSMap decodes a column-major special buffer converting
// global row indices through the ownership map; see DecodeEDToCRSMap.
func DecodeEDToCCSMap(buf []float64, cols int, rowMap []int, ctr *cost.Counter) (*CCS, error) {
	if cols < 0 {
		return nil, fmt.Errorf("compress: DecodeEDToCCSMap negative col count %d", cols)
	}
	ptr, idx, val, err := decodeED(buf, cols, len(rowMap), 0, rowMap, "col", "row", ctr)
	if err != nil {
		return nil, err
	}
	return &CCS{Rows: len(rowMap), Cols: cols, ColPtr: ptr, RowIdx: idx, Val: val}, nil
}
