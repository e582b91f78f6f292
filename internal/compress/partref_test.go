package compress

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// The accessor-form reference of the root's part scan: every cell is
// pulled through at(i, j), one nonzero appended at a time and charged
// as it is found. It shares no code with EncodeED, so the one
// route (EncodeED, (*Format).CompressPart) is held to it — words,
// arrays and charges — in TestEncodeEDPartMatchesRect,
// TestCompressRectMatchesPartGlobal and FuzzEncodePart.
// EncodeEDPartInto (convertmap.go) is the ED half.

// EncodeEDPart is EncodeEDPartInto into a fresh buffer.
func EncodeEDPart(at func(i, j int) float64, rowMap, colMap []int, major Major, ctr *cost.Counter) []float64 {
	return EncodeEDPartInto(at, rowMap, colMap, major, nil, ctr)
}

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

// CompressJDSPartGlobal is CompressCRSPartGlobal re-laid as jagged
// diagonals, charging one more operation per row for the permutation.
func CompressJDSPartGlobal(at func(i, j int) float64, rowMap, colMap []int, ctr *cost.Counter) *JDS {
	crs := CompressCRSPartGlobal(at, rowMap, colMap, ctr)
	ctr.AddOps(len(rowMap)) // permutation bookkeeping
	return CRSToJDS(crs)
}

// compressPartGlobal is the reference of f.CompressPart.
func compressPartGlobal(f *Format, at func(i, j int) float64, rowMap, colMap []int, ctr *cost.Counter) PartArray {
	switch f.Name {
	case "CRS":
		return CompressCRSPartGlobal(at, rowMap, colMap, ctr)
	case "CCS":
		return CompressCCSPartGlobal(at, rowMap, colMap, ctr)
	case "JDS":
		return CompressJDSPartGlobal(at, rowMap, colMap, ctr)
	}
	panic(fmt.Sprintf("compress: no reference for format %q", f.Name))
}

// encodeRect is EncodeED over the rectangle [r0, r0+nr) x [c0, c0+nc).
func encodeRect(g *sparse.Dense, r0, c0, nr, nc int, major Major, ctr *cost.Counter) []float64 {
	return EncodeED(g, rangeIntsTest(r0, r0+nr), rangeIntsTest(c0, c0+nc), major, nil, ctr)
}

// fuzzMap decodes an ownership map of [0, dim) from three bytes: a
// contiguous range (block partitions), a strided set (cyclic), a
// block-cyclic set (BRS) or the empty map (a processor with no rows).
func fuzzMap(kind, a, b byte, dim int) []int {
	var m []int
	switch kind % 4 {
	case 0:
		lo := int(a) % (dim + 1)
		for i := lo; i < lo+int(b)%(dim-lo+1); i++ {
			m = append(m, i)
		}
	case 1:
		step := 1 + int(b)%4
		for i := int(a) % step; i < dim; i += step {
			m = append(m, i)
		}
	case 2:
		size, cycle := 1+int(a)%3, 2+int(b)%3
		for i := 0; i < dim; i++ {
			if (i/size)%cycle == int(b/4)%cycle {
				m = append(m, i)
			}
		}
	}
	return m
}

// fuzzDense decodes a rows x cols array from one byte per cell: mostly
// zeros, small integers, and the values a scan must not mistake — a
// negative zero (a zero) and a NaN (a nonzero).
func fuzzDense(rows, cols int, cells []byte) *sparse.Dense {
	d := sparse.NewDense(rows, cols)
	for k, c := range cells[:min(len(cells), rows*cols)] {
		v := 0.0
		switch {
		case c == 255:
			v = math.Copysign(0, -1)
		case c == 254:
			v = math.NaN()
		case c >= 160:
			v = float64(int(c) - 200)
		}
		d.Set(k/cols, k%cols, v)
	}
	return d
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// packPartGlobal is the reference of f.PackPart: the reference array,
// its minor indices made local when local is set — a shift by the minor
// map's origin, or a conversion through a strided map — charging dist,
// then packed by PackInto.
func packPartGlobal(t *testing.T, f *Format, at func(i, j int) float64, rowMap, colMap []int, local bool, comp, dist *cost.Counter) ([]float64, int64) {
	a := compressPartGlobal(f, at, rowMap, colMap, comp)
	if local {
		m := colMap
		if f.MinorIsRow {
			m = rowMap
		}
		switch {
		case !partition.Contiguous(m):
			if err := a.ConvertMinor(m, dist); err != nil {
				t.Fatal(err)
			}
		case len(m) > 0:
			a.ShiftMinor(m[0], dist)
		}
	}
	return a.PackInto(nil, dist), a.HeaderExtra()
}

// FuzzEncodePart holds the one route to the accessor-form reference on
// arbitrary parts: a small dense array and sorted row and column maps
// that are contiguous, strided, block-cyclic or empty. EncodeED, from no
// buffer and from a reused one of fuzzed capacity full of stale words,
// must produce the reference's buffer in both layouts, and CompressPart
// the reference's array in every registered format (compared as its
// wire form and header word), each for the reference's charge. PackPart
// and PackPartEntries, from the same two buffers (the entries twin from
// a scratch carried through the run), must write the reference array's
// wire words bit for bit with its header word and both its charges:
// global minor indices as they stand, and local ones after the
// reference has converted them, by offset or by map.
func FuzzEncodePart(f *testing.F) {
	f.Add([]byte{9, 7, 0, 2, 5, 1, 1, 2, 0, 170, 201, 0, 0, 255, 254, 199, 160, 0, 200})
	f.Add([]byte{3, 3, 2, 1, 6, 2, 2, 9, 64, 161, 162, 163, 164, 165, 166, 167, 168, 169, 170, 171})
	f.Add([]byte{11, 0, 3, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{12, 12, 0, 3, 7, 1, 1, 2, 40, 170, 0, 255, 254, 161, 0, 0, 199, 200, 160, 180, 0, 171})
	scratch := new(EntryScratch)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 9 {
			return
		}
		rows, cols := int(raw[0])%13, int(raw[1])%13
		g := fuzzDense(rows, cols, raw[9:])
		rowMap := fuzzMap(raw[2], raw[3], raw[4], rows)
		colMap := fuzzMap(raw[5], raw[6], raw[7], cols)
		stale := make([]float64, int(raw[8])%64)
		for i := range stale {
			stale[i] = -7.5
		}
		for _, major := range []Major{RowMajor, ColMajor} {
			var want cost.Counter
			wantBuf := EncodeEDPart(g.At, rowMap, colMap, major, &want)
			for _, buf := range [][]float64{nil, slices.Clone(stale)[:0]} {
				var got cost.Counter
				if gotBuf := EncodeED(g, rowMap, colMap, major, buf, &got); !sameBits(gotBuf, wantBuf) || got != want {
					t.Fatalf("EncodeED %v x %v %s (cap %d): %v charged %v, reference %v charged %v",
						rowMap, colMap, major, cap(buf), gotBuf, got, wantBuf, want)
				}
			}
		}
		for _, fm := range testFormats {
			name := fm.Name
			var got, want cost.Counter
			a := fm.CompressPart(g, rowMap, colMap, &got)
			ref := compressPartGlobal(fm, g.At, rowMap, colMap, &want)
			if !sameBits(a.PackInto(nil, nil), ref.PackInto(nil, nil)) || a.HeaderExtra() != ref.HeaderExtra() || got != want {
				t.Fatalf("%s CompressPart %v x %v: %+v charged %v, reference %+v charged %v", name, rowMap, colMap, a, got, ref, want)
			}
			for _, local := range []bool{false, true} {
				var wantComp, wantDist cost.Counter
				wantWire, wantExtra := packPartGlobal(t, fm, g.At, rowMap, colMap, local, &wantComp, &wantDist)
				check := func(route string, capacity int, wire []float64, extra int64, err error, comp, dist cost.Counter) {
					t.Helper()
					if err != nil || !sameBits(wire, wantWire) || extra != wantExtra || comp != wantComp || dist != wantDist {
						t.Fatalf("%s %s %v x %v local=%t (cap %d): %v extra %d charged %v/%v (err %v), reference %v extra %d charged %v/%v",
							name, route, rowMap, colMap, local, capacity, wire, extra, comp, dist, err, wantWire, wantExtra, wantComp, wantDist)
					}
				}
				for _, buf := range [][]float64{nil, slices.Clone(stale)[:0]} {
					var comp, dist cost.Counter
					wire, extra, _, err := fm.PackPart(g, rowMap, colMap, local, buf, &comp, &dist)
					check("PackPart", cap(buf), wire, extra, err, comp, dist)
				}
				st := NewEntries(rows, cols)
				for _, gi := range rowMap {
					for _, gj := range colMap {
						st.Add(gi, gj, g.At(gi, gj)) // zeros too: each erases its cell
					}
				}
				var comp, dist cost.Counter
				wire, extra, _, err := fm.PackPartEntries(st, rowMap, colMap, local, scratch, &comp, &dist)
				check("PackPartEntries", cap(scratch.wire), wire, extra, err, comp, dist)
			}
		}
	})
}
