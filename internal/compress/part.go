package compress

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// Part compression for the CFS scheme (paper §3.2): the root compresses
// each local piece *before* sending, and "the values stored in CO are
// global array indices" — the receiver converts them to local indices
// after unpacking. These constructors therefore emit local-shaped
// compressed arrays whose minor indices are global. Charging matches
// CompressCRS/CCS: one operation per scanned element, three per nonzero.
// (*Format).CompressPartEntries is the entry-list twin.

// CompressCRSPartGlobal compresses the cross product rowMap x colMap of
// a global array (accessed through at) into a CRS of local shape whose
// ColIdx entries are *global* column indices.
func CompressCRSPartGlobal(at func(i, j int) float64, rowMap, colMap []int, ctr *cost.Counter) *CRS {
	m := &CRS{Rows: len(rowMap), Cols: len(colMap), RowPtr: make([]int, len(rowMap)+1)}
	for li, gi := range rowMap {
		for _, gj := range colMap {
			if v := at(gi, gj); v != 0 {
				m.ColIdx = append(m.ColIdx, gj)
				m.Val = append(m.Val, v)
				ctr.AddOps(3)
			}
		}
		m.RowPtr[li+1] = len(m.Val)
		ctr.AddOps(len(colMap))
	}
	return m
}

// CompressCCSPartGlobal compresses the cross product rowMap x colMap
// into a CCS of local shape whose RowIdx entries are *global* row
// indices.
func CompressCCSPartGlobal(at func(i, j int) float64, rowMap, colMap []int, ctr *cost.Counter) *CCS {
	m := &CCS{Rows: len(rowMap), Cols: len(colMap), ColPtr: make([]int, len(colMap)+1)}
	for lj, gj := range colMap {
		for _, gi := range rowMap {
			if v := at(gi, gj); v != 0 {
				m.RowIdx = append(m.RowIdx, gi)
				m.Val = append(m.Val, v)
				ctr.AddOps(3)
			}
		}
		m.ColPtr[lj+1] = len(m.Val)
		ctr.AddOps(len(rowMap))
	}
	return m
}

// The block route. For the paper's three block partitions (row, column,
// mesh) every part is the rectangle [r0, r0+nr) x [c0, c0+nc) of the
// dense global array, so the root scans row sub-slices of g directly —
// no accessor call, no index lists — in two passes: one sizes the
// pointer array and the exact nnz, the other fills ColIdx/Val (RowIdx/
// Val) by index into exactly sized slabs. Results and charges are
// identical to the accessor forms above, which remain the general path
// for cyclic maps (a streamed part takes the entry-list twins,
// entries.go).

func checkRect(name string, g *sparse.Dense, r0, c0, nr, nc int) {
	if r0 < 0 || c0 < 0 || nr < 0 || nc < 0 || r0+nr > g.Rows() || c0+nc > g.Cols() {
		panic(fmt.Sprintf("compress: %s(%d,%d,%d,%d) out of range %dx%d",
			name, r0, c0, nr, nc, g.Rows(), g.Cols()))
	}
}

// CompressCRSRectGlobal is CompressCRSPartGlobal for a rectangular part
// of a materialised global array.
func CompressCRSRectGlobal(g *sparse.Dense, r0, c0, nr, nc int, ctr *cost.Counter) *CRS {
	checkRect("CompressCRSRectGlobal", g, r0, c0, nr, nc)
	data, stride := g.Data(), g.Cols()
	m := &CRS{Rows: nr, Cols: nc, RowPtr: make([]int, nr+1)}
	nnz := 0
	for i := 0; i < nr; i++ {
		at := (r0+i)*stride + c0
		for _, v := range data[at : at+nc] {
			if v != 0 {
				nnz++
			}
		}
		m.RowPtr[i+1] = nnz
	}
	// One slot of slack: the fill stores every cell at the cursor and
	// advances it only past a nonzero (see nonzero), so the zeros after
	// the last nonzero land on slot nnz.
	idx, val := make([]int, nnz+1), make([]float64, nnz+1)
	k := 0
	for i := 0; i < nr; i++ {
		at := (r0+i)*stride + c0
		for j, v := range data[at : at+nc] {
			idx[k], val[k] = c0+j, v
			k += nonzero(v)
		}
	}
	m.ColIdx, m.Val = idx[:nnz:nnz], val[:nnz:nnz]
	ctr.AddOps(nr*nc + 3*nnz)
	return m
}

// CompressCCSRectGlobal is CompressCCSPartGlobal for a rectangular part
// of a materialised global array. Both passes read the cells row by row
// — the order they lie in memory — and the fill scatters each nonzero
// to its column's cursor; rows ascend within a column because the scan
// visits them in order.
func CompressCCSRectGlobal(g *sparse.Dense, r0, c0, nr, nc int, ctr *cost.Counter) *CCS {
	checkRect("CompressCCSRectGlobal", g, r0, c0, nr, nc)
	data, stride := g.Data(), g.Cols()
	m := &CCS{Rows: nr, Cols: nc, ColPtr: make([]int, nc+1)}
	for i := 0; i < nr; i++ {
		at := (r0+i)*stride + c0
		for j, v := range data[at : at+nc] {
			if v != 0 {
				m.ColPtr[j+1]++
			}
		}
	}
	for j := 0; j < nc; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	nnz := m.ColPtr[nc]
	m.RowIdx, m.Val = make([]int, nnz), make([]float64, nnz)
	next := make([]int, nc)
	copy(next, m.ColPtr)
	for i := 0; i < nr; i++ {
		at := (r0+i)*stride + c0
		for j, v := range data[at : at+nc] {
			if v != 0 {
				k := next[j]
				m.RowIdx[k], m.Val[k] = r0+i, v
				next[j] = k + 1
			}
		}
	}
	ctr.AddOps(nr*nc + 3*nnz)
	return m
}

// CompressJDSRectGlobal is CompressJDSPartGlobal for a rectangular part
// of a materialised global array: the CRS block scan, re-laid.
func CompressJDSRectGlobal(g *sparse.Dense, r0, c0, nr, nc int, ctr *cost.Counter) *JDS {
	crs := CompressCRSRectGlobal(g, r0, c0, nr, nc, ctr)
	ctr.AddOps(nr) // permutation bookkeeping
	return CRSToJDS(crs)
}
