package dist

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// benchDistribute is the loop every whole-distribution benchmark here
// shares: b.N distributions on one machine of the given transport
// ("chan", "tcp" or "reliable-tcp", the ARQ over TCP with its default
// retry policy), reused across iterations. wdist-ms and wcomp-ms are
// the measured phases of the paper's split (root time plus the slowest
// rank's), vdist-ms and vcomp-ms the virtual clock's figures for the
// same run.
func benchDistribute(b *testing.B, transport string, s Codec, g *sparse.Dense, part partition.Partition, opts Options) {
	b.Helper()
	var mopts []machine.Option
	if transport != "chan" {
		tr, err := machine.NewTCPTransport(part.NumParts())
		if err != nil {
			b.Fatal(err)
		}
		var base machine.Transport = tr
		if transport == "reliable-tcp" {
			base = machine.NewReliableTransport(tr, machine.RetryPolicy{})
		}
		mopts = append(mopts, machine.WithTransport(base))
	}
	m, err := machine.New(part.NumParts(), mopts...)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	var last *Result
	var wdist, wcomp time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if last, err = distribute(s, m, g, part, opts); err != nil {
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
}

// BenchmarkRun is one whole distribution of the Table-3 array (n=1000,
// s=0.1, p=4, CRS) per scheme and partition over the in-process chan
// transport: the paper's block partitions (row, col, mesh) — the host
// column of EXPERIMENTS.md "Remarks on the wall clock" and, with
// cmd/tables for the full grid, what stands for the paper's Tables 3-5
// on this host — and the cyclic ones (cyclic-row, cyclic-col, brs with
// 8-row blocks), whose parts the root reads through strided maps.
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
	cycRow, err := partition.NewCyclicRow(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	cycCol, err := partition.NewCyclicCol(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	brs, err := partition.NewBlockCyclicRow(n, n, p, 8)
	if err != nil {
		b.Fatal(err)
	}
	parts := []struct {
		name string
		part partition.Partition
	}{{"row", row}, {"col", col}, {"mesh", mesh}, {"cyclic-row", cycRow}, {"cyclic-col", cycCol}, {"brs", brs}}
	for _, s := range Schemes() {
		for _, pt := range parts {
			b.Run(s.Name()+"/"+pt.name, func(b *testing.B) {
				benchDistribute(b, "chan", s, g, pt.part, Options{})
			})
		}
	}
}

// BenchmarkAblationSparseRatio sweeps s across the crossovers of
// Remarks 2 and 5 on the wires the virtual clock stands for: the
// Table-3 array (n=1000, p=4, CRS) at s from 0.02 to 0.45, per
// transport (chan, tcp, reliable-tcp), partition (row, col) and scheme.
// Remark 2 puts CFS's distribution below SFC's iff T_Data/T_Operation
// > 2s/(1-2s); Remark 5 gives the ratios above which ED's and CFS's
// totals drop below SFC's. EXPERIMENTS.md "Remarks on the wall clock"
// reads the crossovers off 20 passes of the whole sweep, so each
// point's samples interleave with every other point's.
func BenchmarkAblationSparseRatio(b *testing.B) {
	const n, p = 1000, 4
	row, err := partition.NewRow(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	col, err := partition.NewCol(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	parts := []struct {
		name string
		part partition.Partition
	}{{"row", row}, {"col", col}}
	for _, s := range []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45} {
		g := sparse.UniformExact(n, n, s, 8)
		for _, transport := range []string{"chan", "tcp", "reliable-tcp"} {
			for _, pt := range parts {
				for _, scheme := range Schemes() {
					b.Run(fmt.Sprintf("%s/%s/%s/s=%g", transport, pt.name, scheme.Name(), s), func(b *testing.B) {
						benchDistribute(b, transport, scheme, g, pt.part, Options{})
					})
				}
			}
		}
	}
}

// BenchmarkAblationCFSConvert compares the paper's receiver-side index
// conversion against the convert-at-root variant on a mesh partition
// (where conversion is needed, Case 3.2.3).
func BenchmarkAblationCFSConvert(b *testing.B) {
	g := sparse.UniformExact(480, 480, 0.1, 10)
	part, err := partition.NewMesh(480, 480, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		atRoot bool
	}{{"receiver-side", false}, {"root-side", true}} {
		b.Run(c.name, func(b *testing.B) {
			benchDistribute(b, "chan", CFS{}, g, part, Options{CFSConvertAtRoot: c.atRoot})
		})
	}
}

// BenchmarkAblationEDOverlap compares the sequential ED root loop
// (Workers: 1) with the pipelined one (Workers: 2, one part of encode
// overlapped with the previous part's send) over the TCP transport,
// where send time is real enough to hide encoding behind.
func BenchmarkAblationEDOverlap(b *testing.B) {
	g := sparse.UniformExact(800, 800, 0.1, 13)
	part, err := partition.NewRow(800, 800, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"pipelined", 2}} {
		b.Run(c.name, func(b *testing.B) {
			benchDistribute(b, "tcp", ED{}, g, part, Options{Workers: c.workers})
		})
	}
}

// BenchmarkStreamDistribute/gate holds the out-of-core engine to its
// memory claim against the materializing one on the same >=10M-nonzero
// chunked source (n=12288 at ~6.7% density, ED/CRS, row partition, p=8,
// an 8 MiB root budget): its heap high-water mark is at most half — the
// materializing side pays the 1.2 GiB dense array streaming exists to
// avoid. The GC headroom is halved for both sides, because under the
// default 100% a churn-heavy profile rides HeapAlloc to twice its live
// set and the high-water mark would measure the collector's laziness as
// much as the footprint. Time is not gated here: on this input it is
// decided by the state of the process's page mappings, not by either
// engine (EXPERIMENTS.md "Where each number comes from").
func BenchmarkStreamDistribute(b *testing.B) {
	const (
		n   = 12288
		p   = 8
		nnz = 10_066_330 // ~0.067 * n * n
	)
	part, err := partition.NewRow(n, n, p)
	if err != nil {
		b.Fatal(err)
	}
	source := func() sparse.ChunkReader {
		return sparse.NewUniformStream(n, n, nnz, 77, sparse.DefaultChunkEntries)
	}
	b.Run("gate", func(b *testing.B) {
		defer debug.SetGCPercent(debug.SetGCPercent(50))
		// peakMiB is the heap high-water mark of one distribution on a
		// fresh machine.
		peakMiB := func(run func(m *machine.Machine) error) float64 {
			m, err := machine.New(p, machine.WithRecvTimeout(300*time.Second))
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			runtime.GC() // the other side's garbage is not this side's peak
			peak, err := heapHighWater(func() error { return run(m) })
			if err != nil {
				b.Fatal(err)
			}
			return float64(peak) / (1 << 20)
		}
		var mat, stream float64
		for i := 0; i < b.N; i++ {
			mat = peakMiB(func(m *machine.Machine) error {
				g, err := sparse.Materialize(source())
				if err != nil {
					return err
				}
				_, err = Run(m, Plan{Codec: ED{}, Global: g, Partition: part})
				return err
			})
			stream = peakMiB(func(m *machine.Machine) error {
				_, err := RunStream(m, StreamPlan{Codec: ED{}, Source: source(), Partition: part,
					Stream: StreamOptions{MemBudget: 8 << 20}})
				return err
			})
		}
		b.ReportMetric(0, "ns/op") // suppressed: the gate is on memory
		b.ReportMetric(mat, "mat-peak-MB")
		b.ReportMetric(stream, "stream-peak-MB")
		b.ReportMetric(stream/mat, "peak-ratio")
		if stream/mat > 0.5 {
			b.Fatalf("streaming heap high-water is %.3f of materializing, above the 0.50 bound", stream/mat)
		}
	})
}
