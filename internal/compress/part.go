package compress

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// The root's scan of one part (paper §3.2, §3.3). A part is the cross
// product rowMap x colMap of the dense global array: sorted ownership
// maps, contiguous for the row, column and mesh partitions, strided for
// the cyclic and block-cyclic ones. CFS compresses it and ED encodes it
// by the same rule — scan the owned cells line by line, keep the
// nonzeros with their *global* minor indices — so there is one scan,
// EncodeED (edbuf.go), and CFS's PackPart rewrites its buffer straight
// into the wire form; only the receiver's index conversion depends on
// whether a map is contiguous. Charging is the paper's: one operation
// per scanned element, three per nonzero, booked once per part.
// (*Format).PackPartEntries and EncodeEDPartEntries (entries.go) are
// the twins for a part handed over as its nonzeros.

// PackPart writes the part rowMap x colMap of g in the format's CFS
// wire form (§3.2): EncodeED into a pooled special buffer, charging comp
// cells + 3·nnz, then packSpecial into buf's backing array. It returns
// the wire words, the header's extra word (HeaderExtra) and the scan's
// wall time, the compression phase's share of the call.
func (f *Format) PackPart(g *sparse.Dense, rowMap, colMap []int, local bool, buf []float64, comp, dist *cost.Counter) ([]float64, int64, time.Duration, error) {
	sp := scratch.Get().(*[]float64)
	start := time.Now()
	special := EncodeED(g, rowMap, colMap, f.Major, (*sp)[:0], comp)
	scan := time.Since(start)
	wire, extra, err := f.packSpecial(special, rowMap, colMap, local, buf, comp, dist)
	*sp = special
	scratch.Put(sp)
	return wire, extra, scan, err
}

// packSpecial rewrites a part's special buffer [R_0..R_{n-1} | C,V
// pairs] into the wire form [ptr (n+1) | idx (nnz) | val (nnz)], every
// word of resized buf written: counts prefix-summed, pairs
// de-interleaved, and with local set (the CFSConvertAtRoot ablation)
// minor indices made local as ShiftMinor or ConvertMinor would. dist is
// charged what those and PackInto charge, once all are accepted. JDS
// takes the array route: its lines re-laid, then packed.
func (f *Format) packSpecial(special []float64, rowMap, colMap []int, local bool, buf []float64, comp, dist *cost.Counter) ([]float64, int64, error) {
	n, span, minor, kind := len(rowMap), len(colMap), colMap, "col"
	if f.Major == ColMajor {
		n, span, minor, kind = span, n, rowMap, "row"
	}
	offset, idxMap := 0, []int(nil) // subtracted, or searched when strided
	if local && !partition.Contiguous(minor) {
		idxMap = minor
	} else if local && len(minor) > 0 {
		offset = minor[0]
	}
	converts := idxMap != nil || offset != 0
	if f.Name == "JDS" {
		a := f.ofLines(linesOf(special, n, span), comp)
		if converts {
			if err := a.ConvertMinor(minor, dist); err != nil {
				return nil, 0, err
			}
		}
		return a.PackInto(buf[:0], dist), a.HeaderExtra(), nil
	}
	nnz := (len(special) - n) / 2
	buf = resize(buf, n+1+2*nnz)
	ptr, idx, val := buf[:n+1], buf[n+1:n+1+nnz], buf[n+1+nnz:]
	ptr[0] = 0
	for i, c := range special[:n] {
		ptr[i+1] = ptr[i] + c
	}
	pairs := special[n:]
	for k := range idx {
		idx[k], val[k] = pairs[2*k]-float64(offset), pairs[2*k+1]
		if idxMap != nil {
			l, err := localIndexOf(idxMap, int(pairs[2*k]))
			if err != nil {
				return nil, 0, fmt.Errorf("compress: %s %s %d: %w", f.Name, kind, k, err)
			}
			idx[k] = float64(l)
		}
	}
	if converts {
		dist.AddOps(nnz)
	}
	dist.AddOps(len(buf))
	return buf, 0, nil
}

// CompressPart compresses the part rowMap x colMap of the global array
// g into the format, keeping *global* minor indices, with the lines
// read back off EncodeED's buffer; it charges cells + 3·nnz (JDS adds
// one per row for its permutation). No door calls it: it is the array
// route TestEngineParity and FuzzEncodePart hold PackPart to.
func (f *Format) CompressPart(g *sparse.Dense, rowMap, colMap []int, ctr *cost.Counter) PartArray {
	return f.ofLines(scanLines(g, rowMap, colMap, f.Major, ctr), ctr)
}

// scratch holds the special buffers PackPart and scanLines encode
// into, each grown to the largest part its user has scanned, so a scan
// allocates only what it returns.
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
