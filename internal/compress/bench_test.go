package compress

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/sparse"
)

// In-package kernel benchmarks on the Table-3 array (n=1000, s=0.1),
// reported per cell for the scans and per nonzero for the receiver
// side. CI runs them with -benchtime=1x so they cannot rot; numbers
// come from `go test -run '^$' -bench . ./internal/compress`.

const benchN = 1000

func benchArray() *sparse.Dense { return sparse.UniformExact(benchN, benchN, 0.1, 7) }

// benchBanded is the low-density counterpart: a 2000² band of half
// width 8 filled at 0.8, s ≈ 0.007, where a scan meets long runs of
// zeros and a predictable branch beats a branch-free gather.
func benchBanded() *sparse.Dense { return sparse.Banded(2000, 2000, 8, 0.8, 7) }

func perUnit(b *testing.B, unit string, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), unit)
}

// benchParts are the two kinds of map the one route reads through: the
// whole array (contiguous maps, as for every block partition) and the
// part a 4-cyclic column partition gives one processor (a strided
// column map).
func benchParts() []struct {
	name           string
	rowMap, colMap []int
} {
	strided := make([]int, 0, benchN/4)
	for j := 1; j < benchN; j += 4 {
		strided = append(strided, j)
	}
	all := rangeIntsTest(0, benchN)
	return []struct {
		name           string
		rowMap, colMap []int
	}{{"contiguous", all, all}, {"strided", all, strided}}
}

// BenchmarkEncodeED times EncodeED over both kinds of map into a reused
// buffer, per scanned cell, and over the low-density banded array;
// accessor/ED is the accessor form EncodeEDPartInto on the strided
// part. BenchmarkCompressCRS is the branching scan it is measured
// against.
func BenchmarkEncodeED(b *testing.B) {
	g := benchArray()
	parts := benchParts()
	for _, pt := range parts {
		for _, m := range []Major{RowMajor, ColMajor} {
			b.Run(pt.name+"/"+m.String(), func(b *testing.B) {
				var buf []float64
				for i := 0; i < b.N; i++ {
					buf = EncodeED(g, pt.rowMap, pt.colMap, m, buf[:0], nil)
				}
				perUnit(b, "ns/cell", len(pt.rowMap)*len(pt.colMap))
			})
		}
	}
	strided := parts[1]
	b.Run("accessor/ED", func(b *testing.B) {
		var buf []float64
		for i := 0; i < b.N; i++ {
			buf = EncodeEDPartInto(g.At, strided.rowMap, strided.colMap, RowMajor, buf[:0], nil)
		}
		perUnit(b, "ns/cell", len(strided.rowMap)*len(strided.colMap))
	})
	band := benchBanded()
	whole := rangeIntsTest(0, band.Rows())
	b.Run("banded/RowMajor", func(b *testing.B) {
		var buf []float64
		for i := 0; i < b.N; i++ {
			buf = EncodeED(band, whole, whole, RowMajor, buf[:0], nil)
		}
		perUnit(b, "ns/cell", band.Size())
	})
}

// BenchmarkCompressCRS is the dense compress of SFC's ranks over a
// 250×1000 part (a row-partition part of the Table-3 array on four
// ranks) across the density range, and over the banded array: the
// branching scan's trade against EncodeED's (EXPERIMENTS "The
// low-density side of the root scan"), with the bytes its result costs.
func BenchmarkCompressCRS(b *testing.B) {
	run := func(name string, g *sparse.Dense) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CompressCRS(g, nil)
			}
			perUnit(b, "ns/cell", g.Size())
		})
	}
	for _, s := range []float64{0.001, 0.01, 0.1, 0.3} {
		run(fmt.Sprintf("s=%g", s), sparse.UniformExact(250, benchN, s, 7))
	}
	run("banded", benchBanded())
}

// BenchmarkCompressPart is the array route of the CFS root compress,
// CompressPart, in each of the three methods over both kinds of map,
// and over the whole banded array; BenchmarkPackPart is the route the
// root runs.
func BenchmarkCompressPart(b *testing.B) {
	g, band := benchArray(), benchBanded()
	whole := rangeIntsTest(0, band.Rows())
	for _, f := range testFormats {
		name := f.Name
		run := func(label string, g *sparse.Dense, rowMap, colMap []int) {
			b.Run(label+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f.CompressPart(g, rowMap, colMap, nil)
				}
				perUnit(b, "ns/cell", len(rowMap)*len(colMap))
			})
		}
		for _, pt := range benchParts() {
			run(pt.name, g, pt.rowMap, pt.colMap)
		}
		run("banded", band, whole, whole)
	}
}

// BenchmarkPackPart is the CFS root encode, PackPart — the scan and
// its rewrite into the wire form, into one reused buffer — over the
// parts and methods of BenchmarkCompressPart.
func BenchmarkPackPart(b *testing.B) {
	g, band := benchArray(), benchBanded()
	whole := rangeIntsTest(0, band.Rows())
	for _, f := range testFormats {
		name := f.Name
		run := func(label string, g *sparse.Dense, rowMap, colMap []int) {
			b.Run(label+"/"+name, func(b *testing.B) {
				var buf []float64
				for i := 0; i < b.N; i++ {
					buf, _, _, _ = f.PackPart(g, rowMap, colMap, false, buf, nil, nil)
				}
				perUnit(b, "ns/cell", len(rowMap)*len(colMap))
			})
		}
		for _, pt := range benchParts() {
			run(pt.name, g, pt.rowMap, pt.colMap)
		}
		run("banded", band, whole, whole)
	}
}

// BenchmarkDecodeED decodes one column-partition part (1000 x 250 at
// column offset 250), so the offset subtraction is on the timed path;
// reference is the three-pass decoder of edref_test.go.
func BenchmarkDecodeED(b *testing.B) {
	g := benchArray()
	const c0, nc = 250, 250
	buf := encodeRect(g, 0, c0, benchN, nc, RowMajor, nil)
	nnz := (len(buf) - benchN) / 2
	for _, d := range []struct {
		name   string
		decode func([]float64, int, int, int, *cost.Counter) (*CRS, error)
	}{{"onepass", DecodeEDToCRS}, {"reference", refDecodeEDToCRS}} {
		b.Run(d.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.decode(buf, benchN, nc, c0, nil); err != nil {
					b.Fatal(err)
				}
			}
			perUnit(b, "ns/nnz", nnz)
		})
	}
}

// BenchmarkConvertCols converts one part's global column indices to
// local ones through a contiguous (column partition) and a strided
// (cyclic column partition) ownership map.
func BenchmarkConvertCols(b *testing.B) {
	g := benchArray()
	all := rangeIntsTest(0, benchN)
	strided := make([]int, 0, benchN/4)
	for j := 1; j < benchN; j += 4 {
		strided = append(strided, j)
	}
	crs := CRSFormat
	for _, c := range []struct {
		name   string
		colMap []int
	}{{"contiguous", rangeIntsTest(250, 500)}, {"strided", strided}} {
		b.Run(c.name, func(b *testing.B) {
			global := crs.CompressPart(g, all, c.colMap, nil).(*CRS)
			m := global.Clone()
			for i := 0; i < b.N; i++ {
				copy(m.ColIdx, global.ColIdx)
				if err := m.ConvertColsToLocal(c.colMap, nil); err != nil {
					b.Fatal(err)
				}
			}
			perUnit(b, "ns/nnz", m.NNZ())
		})
	}
}
