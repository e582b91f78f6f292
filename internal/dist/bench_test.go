package dist

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// BenchmarkRun is one whole distribution of the Table-3 array (n=1000,
// s=0.1, p=4, CRS) per scheme and block partition over the in-process
// chan transport, on one machine reused across iterations — the host
// column of EXPERIMENTS.md "Remarks on the wall clock". wdist-ms and
// wcomp-ms are the measured phases of the paper's split (root time plus
// the slowest rank's), vdist-ms and vcomp-ms the virtual clock's
// figures for the same run. CI runs it with -benchtime=1x so it cannot
// rot.
func BenchmarkRun(b *testing.B) {
	const n, p = 1000, 4
	g := sparse.UniformExact(n, n, 0.1, 7)
	row, err := partition.NewRow(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	col, err := partition.NewCol(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	mesh, err := partition.NewMesh(n, n, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	parts := []struct {
		name string
		part partition.Partition
	}{{"row", row}, {"col", col}, {"mesh", mesh}}
	for _, s := range Schemes() {
		for _, pt := range parts {
			b.Run(s.Name()+"/"+pt.name, func(b *testing.B) {
				m, err := machine.New(p)
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				var last *Result
				var wdist, wcomp time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if last, err = s.Distribute(m, g, pt.part, Options{}); err != nil {
						b.Fatal(err)
					}
					wdist += last.Breakdown.WallDistribution()
					wcomp += last.Breakdown.WallCompression()
				}
				b.StopTimer()
				bd := last.Breakdown
				b.ReportMetric(float64(wdist.Microseconds())/1e3/float64(b.N), "wdist-ms")
				b.ReportMetric(float64(wcomp.Microseconds())/1e3/float64(b.N), "wcomp-ms")
				b.ReportMetric(float64(bd.DistributionTime(cost.DefaultParams))/1e6, "vdist-ms")
				b.ReportMetric(float64(bd.CompressionTime(cost.DefaultParams))/1e6, "vcomp-ms")
			})
		}
	}
}
