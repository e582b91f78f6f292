package compress

import (
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

func perUnit(b *testing.B, unit string, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), unit)
}

// BenchmarkEncodeED times both encode routes over the whole array into
// a reused buffer; CompressCRS is the scan both are measured against.
func BenchmarkEncodeED(b *testing.B) {
	g := benchArray()
	all := rangeIntsTest(0, benchN)
	majors := []struct {
		name  string
		major Major
	}{{"row", RowMajor}, {"col", ColMajor}}
	for _, m := range majors {
		b.Run("block/"+m.name, func(b *testing.B) {
			var buf []float64
			for i := 0; i < b.N; i++ {
				buf = EncodeEDRectInto(g, 0, 0, benchN, benchN, m.major, buf[:0], nil)
			}
			perUnit(b, "ns/cell", g.Size())
		})
		b.Run("accessor/"+m.name, func(b *testing.B) {
			var buf []float64
			for i := 0; i < b.N; i++ {
				buf = EncodeEDPartInto(g.At, all, all, m.major, buf[:0], nil)
			}
			perUnit(b, "ns/cell", g.Size())
		})
	}
	b.Run("CompressCRS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CompressCRS(g, nil)
		}
		perUnit(b, "ns/cell", g.Size())
	})
}

// BenchmarkCompressPart is the CFS root compress of the whole array in
// each of the three methods: the block route against the accessor form
// it is pinned to.
func BenchmarkCompressPart(b *testing.B) {
	g := benchArray()
	all := rangeIntsTest(0, benchN)
	for _, c := range []struct {
		name     string
		compress func()
	}{
		{"block/CRS", func() { CompressCRSRectGlobal(g, 0, 0, benchN, benchN, nil) }},
		{"accessor/CRS", func() { CompressCRSPartGlobal(g.At, all, all, nil) }},
		{"block/CCS", func() { CompressCCSRectGlobal(g, 0, 0, benchN, benchN, nil) }},
		{"accessor/CCS", func() { CompressCCSPartGlobal(g.At, all, all, nil) }},
		{"block/JDS", func() { CompressJDSRectGlobal(g, 0, 0, benchN, benchN, nil) }},
		{"accessor/JDS", func() { CompressJDSPartGlobal(g.At, all, all, nil) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.compress()
			}
			perUnit(b, "ns/cell", g.Size())
		})
	}
}

// BenchmarkDecodeED decodes one column-partition part (1000 x 250 at
// column offset 250), so the offset subtraction is on the timed path;
// reference is the three-pass decoder of edref_test.go.
func BenchmarkDecodeED(b *testing.B) {
	g := benchArray()
	const c0, nc = 250, 250
	buf := EncodeEDRect(g, 0, c0, benchN, nc, RowMajor, nil)
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
	for _, c := range []struct {
		name   string
		colMap []int
	}{{"contiguous", rangeIntsTest(250, 500)}, {"strided", strided}} {
		b.Run(c.name, func(b *testing.B) {
			global := CompressCRSPartGlobal(g.At, all, c.colMap, nil)
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
