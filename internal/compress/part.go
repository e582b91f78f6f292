package compress

import (
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// The root's scan of one part (paper §3.2, §3.3). A part is the cross
// product rowMap x colMap of the dense global array: sorted ownership
// maps, contiguous for the row, column and mesh partitions, strided for
// the cyclic and block-cyclic ones. CFS compresses it and ED encodes it
// by the same rule — scan the owned cells line by line, keep the
// nonzeros with their *global* minor indices — so there is one scan,
// EncodeED (edbuf.go), and CFS's CompressPart reads its lines back off
// the special buffer; only the receiver's index conversion depends on
// whether a map is contiguous. Charging is the paper's: one operation
// per scanned element, three per nonzero, booked once per part.
// (*Format).CompressPartEntries and EncodeEDPartEntries (entries.go)
// are the twins for a part handed over as its nonzeros.

// CompressPart compresses the part rowMap x colMap of the global array
// g into the format, keeping *global* minor indices — CFS's root-side
// compression phase; the receiver localises them (Cases 3.2.1-3.2.3).
// It is EncodeED's scan in the format's Major with the lines read back
// off the special buffer, so it charges what EncodeED charges, cells +
// 3·nnz (JDS adds one per row for its permutation).
func (f *Format) CompressPart(g *sparse.Dense, rowMap, colMap []int, ctr *cost.Counter) PartArray {
	return f.ofLines(scanLines(g, rowMap, colMap, f.Major, ctr), ctr)
}

// scratch holds the special buffers scanLines encodes into, each grown
// to the largest part its user has scanned, so a scan allocates only the
// arrays it returns.
var scratch = sync.Pool{New: func() any { return new([]float64) }}

// scanLines is the lines of the part rowMap x colMap in the given Major:
// EncodeED into a pooled buffer, read back by linesOf.
func scanLines(g *sparse.Dense, rowMap, colMap []int, major Major, ctr *cost.Counter) lines {
	sp := scratch.Get().(*[]float64)
	buf := EncodeED(g, rowMap, colMap, major, (*sp)[:0], ctr)
	n, span := len(rowMap), len(colMap)
	if major == ColMajor {
		n, span = span, n
	}
	l := linesOf(buf, n, span)
	*sp = buf
	scratch.Put(sp)
	return l
}

// linesOf reads n lines of the given span off a special buffer this
// package encoded: the counts become the pointer array by prefix sum,
// the pairs the index and value arrays. Nothing is checked or charged.
func linesOf(buf []float64, n, span int) lines {
	nnz := (len(buf) - n) / 2
	l := lines{n: n, span: span, val: make([]float64, nnz)}
	l.ptr, l.idx = carveInts(n+1, nnz)
	for i, c := range buf[:n] {
		l.ptr[i+1] = l.ptr[i] + int(c)
	}
	pairs := buf[n:]
	for k := range l.val {
		l.idx[k], l.val[k] = int(pairs[2*k]), pairs[2*k+1]
	}
	return l
}

// axisMap holds 0, 1, 2, ...: the ownership map of a whole axis, shared
// read-only and grown on demand, so a whole-array scan (CompressCCS)
// allocates no map of its own once it has seen its size.
var axisMap atomic.Pointer[[]int]

// wholeAxis returns the map [0, n).
func wholeAxis(n int) []int {
	if p := axisMap.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	axisMap.Store(&m)
	return m
}
